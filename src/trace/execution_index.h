// Execution indexing: calling-context-qualified syscall addresses.
//
// Following the distributed execution indexing idea (Meiklejohn et al.), the
// tracer stamps every SCF event with a calling-context address
//
//   (context digest, sequence number)
//
// where the context digest is a rolling 64-bit hash of the invoking
// process's most recent function-enter chain (a bounded shadow stack: the
// last kContextDepth uprobe hits, oldest to newest), and the sequence number
// counts matching invocations *within* that context on that node, keyed by
// (node, digest, syscall, input). Invocations from other calling contexts do
// not perturb the counter, unlike a flat "nth matching invocation" count.
//
// The address is part of the trace format only (RTRC v2, the text codec's
// ctx=/cseq= tokens, trace_explorer --index-stats). Fault schedules aim SCFs
// with nth-invocation counters (DESIGN.md §14); nothing replays a recorded
// address. The tracker is fed from OnFunctionEnter (every uprobe hit, before
// any monitored-set filtering, so digests do not depend on the profiler's
// monitored set) and advanced once per syscall invocation.
//
// A digest of 0 means "no context recorded" (e.g. a trace from a pre-index
// tracer or an RTRC v1 stream).
#ifndef SRC_TRACE_EXECUTION_INDEX_H_
#define SRC_TRACE_EXECUTION_INDEX_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "src/os/process.h"
#include "src/os/syscall.h"

namespace rose {

// Depth of the bounded shadow stack. The simulated guests' call chains are
// shallow (Algorithm 1 caps context chains at 6); eight enters of history
// distinguishes every calling context the diagnosis engine can express while
// keeping the per-enter update a handful of integer mixes.
inline constexpr int kExecutionContextDepth = 8;

// The sequence-counter key input for a syscall invocation: the pathname for
// path-based syscalls, "sock:<ip>" for network ones, empty otherwise. It keys
// on the invocation's immediate arguments, never on post-hoc fd resolution,
// so the count is known at syscall exit. NextSeq(node, digest, inv) hashes
// exactly these bytes in place; this string form is the reference the tests
// check it against.
std::string IndexInputOf(const SyscallInvocation& inv);

class ExecutionIndexTracker {
 public:
  // Feeds one uprobe hit into pid's shadow chain. Must be called for every
  // function enter the kernel reports, regardless of any monitored-set
  // configuration, or digests would depend on that configuration.
  void OnFunctionEnter(Pid pid, int32_t function_id);

  // Current context digest of `pid`; 0 when no function has entered yet.
  uint64_t DigestOf(Pid pid) const;

  // Advances and returns the 1-based sequence number of the next invocation
  // matching (node, digest, sys, input). Call exactly once per syscall
  // invocation.
  uint32_t NextSeq(NodeId node, uint64_t digest, Sys sys, std::string_view input);
  // Same, with the input taken from `inv` (IndexInputOf) without building it.
  uint32_t NextSeq(NodeId node, uint64_t digest, const SyscallInvocation& inv);

  // Forgets all per-pid chains and sequence counters.
  void Reset();

  // The stable 64-bit key NextSeq counts under — exposed so tests can assert
  // the keying scheme directly.
  static uint64_t SeqKey(NodeId node, uint64_t digest, Sys sys, std::string_view input);

 private:
  struct Chain {
    int32_t ids[kExecutionContextDepth] = {};
    uint8_t size = 0;  // Valid entries, <= kExecutionContextDepth.
    uint8_t head = 0;  // Ring slot the next enter writes.
    uint64_t digest = 0;
  };

  static uint64_t DigestChain(const Chain& chain);
  static uint64_t SeqKeyOfHash(NodeId node, uint64_t digest, Sys sys, uint64_t input_hash);

  std::unordered_map<Pid, Chain> chains_;
  std::unordered_map<uint64_t, uint32_t> seq_;
};

}  // namespace rose

#endif  // SRC_TRACE_EXECUTION_INDEX_H_
