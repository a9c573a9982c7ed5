// Static validation of merged multi-node traces.
//
// A production trace that reaches the diagnosis phase has passed through
// per-node ring buffers, a dump, and a timestamp merge; corruption at any of
// those stages silently degrades fault extraction. The validator checks the
// invariants the pipeline is supposed to maintain:
//   - timestamps are monotonically non-decreasing (merge order);
//   - every event carries a plausible pid (and, when the caller knows the
//     spawned pid set, one the run actually spawned);
//   - SCF events record a real failure, never Err::kOk;
//   - AF function ids are drawn from the profile's monitored set.
#ifndef SRC_ANALYZE_TRACE_VALIDATOR_H_
#define SRC_ANALYZE_TRACE_VALIDATOR_H_

#include <set>
#include <vector>

#include "src/analyze/diagnostic.h"
#include "src/profile/profiler.h"
#include "src/trace/event.h"

namespace rose {

struct TraceValidateOptions {
  // Profile the trace was captured under; null disables the AF-function
  // membership check.
  const Profile* profile = nullptr;
  // Pids the run spawned; empty means only structurally-invalid (negative)
  // pids are flagged.
  std::set<Pid> known_pids;
};

class TraceValidator {
 public:
  explicit TraceValidator(TraceValidateOptions options = {})
      : options_(std::move(options)) {}

  // Accepts any trace view (a Trace converts implicitly).
  std::vector<Diagnostic> Validate(TraceView trace) const;

 private:
  TraceValidateOptions options_;
};

// Pool-independent canonical hash of a trace window: FNV-1a over every
// event's resolved one-line form. Two windows hash equal iff TraceEquals —
// interning order, pool layout, and text/binary round-trips don't matter.
// This is the dedup key the serve result cache is built on (a resubmitted
// dump, or the same dump after save/load/merge, maps to the same diagnosis).
uint64_t CanonicalTraceHash(TraceView trace);

// Streaming form of CanonicalTraceHash over a raw binary RTRC blob: decodes
// frame by frame and hashes each event's line without ever materializing an
// owning Trace (no pool-string copies, no event vector). Produces the exact
// hash CanonicalTraceHash yields for the parsed blob, so a serve cache key
// computed here matches one computed from a Trace. Text listings fail with
// kBadTraceMagic, like every trace reader. Returns reader.ok(); decode
// diagnostics are appended to `diags` and the event count stored in
// `*event_count` when non-null (both best-effort on failure: the intact
// prefix).
bool CanonicalBlobHash(std::string_view blob, uint64_t* hash_out,
                       std::vector<Diagnostic>* diags = nullptr,
                       size_t* event_count = nullptr);

}  // namespace rose

#endif  // SRC_ANALYZE_TRACE_VALIDATOR_H_
