#include "src/trace/execution_index.h"

namespace rose {

namespace {

// SplitMix64 finalizer — a strong 64-bit avalanche used to mix chain links
// and to combine the sequence-key fields. Order-sensitivity comes from
// re-mixing the running value before each new link is folded in.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Fold(uint64_t h, uint64_t v) { return Mix(h + 0x9e3779b97f4a7c15ULL + v); }

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// FNV-1a, the same scheme the canonical trace hash uses. Chaining `h` hashes
// a concatenation piecewise.
uint64_t HashBytes(std::string_view s, uint64_t h = kFnvOffset) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::string IndexInputOf(const SyscallInvocation& inv) {
  if (SysTakesPath(inv.sys)) return std::string(inv.path);
  if (!inv.remote_ip.empty()) return std::string("sock:").append(inv.remote_ip);
  return std::string();
}

void ExecutionIndexTracker::OnFunctionEnter(Pid pid, int32_t function_id) {
  Chain& chain = chains_[pid];
  chain.ids[chain.head] = function_id;
  chain.head = static_cast<uint8_t>((chain.head + 1) % kExecutionContextDepth);
  if (chain.size < kExecutionContextDepth) chain.size++;
  chain.digest = DigestChain(chain);
}

uint64_t ExecutionIndexTracker::DigestOf(Pid pid) const {
  auto it = chains_.find(pid);
  return it == chains_.end() ? 0 : it->second.digest;
}

uint64_t ExecutionIndexTracker::DigestChain(const Chain& chain) {
  // Oldest-to-newest over the ring so the digest is order-sensitive. The
  // chain is at most kExecutionContextDepth entries, so a full rehash per
  // enter is a handful of mixes — cheaper than maintaining a removable
  // rolling hash and trivially correct.
  uint64_t h = 0;
  const int start = (chain.head - chain.size + kExecutionContextDepth) % kExecutionContextDepth;
  for (int i = 0; i < chain.size; i++) {
    const int slot = (start + i) % kExecutionContextDepth;
    h = Fold(h, static_cast<uint64_t>(static_cast<uint32_t>(chain.ids[slot])));
  }
  // 0 is reserved for "no context"; remap the (vanishingly rare) collision.
  return h == 0 ? 0x9e3779b97f4a7c15ULL : h;
}

uint64_t ExecutionIndexTracker::SeqKeyOfHash(NodeId node, uint64_t digest, Sys sys,
                                             uint64_t input_hash) {
  uint64_t h = digest;
  h = Fold(h, static_cast<uint64_t>(static_cast<uint32_t>(node)));
  h = Fold(h, static_cast<uint64_t>(static_cast<int32_t>(sys)));
  h = Fold(h, input_hash);
  return h;
}

uint64_t ExecutionIndexTracker::SeqKey(NodeId node, uint64_t digest, Sys sys,
                                       std::string_view input) {
  return SeqKeyOfHash(node, digest, sys, HashBytes(input));
}

uint32_t ExecutionIndexTracker::NextSeq(NodeId node, uint64_t digest, Sys sys,
                                        std::string_view input) {
  return ++seq_[SeqKey(node, digest, sys, input)];
}

uint32_t ExecutionIndexTracker::NextSeq(NodeId node, uint64_t digest,
                                        const SyscallInvocation& inv) {
  uint64_t input_hash = kFnvOffset;
  if (SysTakesPath(inv.sys)) {
    input_hash = HashBytes(inv.path);
  } else if (!inv.remote_ip.empty()) {
    input_hash = HashBytes(inv.remote_ip, HashBytes("sock:"));
  }
  return ++seq_[SeqKeyOfHash(node, digest, inv.sys, input_hash)];
}

void ExecutionIndexTracker::Reset() {
  chains_.clear();
  seq_.clear();
}

}  // namespace rose
