// Run orchestration: profiling runs, production(-trace) runs, reproduction runs.
//
// This is the glue the paper's Python utilities provide: build a world,
// deploy the guest, attach tracer / executor / nemesis, run for a fixed
// virtual duration, consult the oracle, dump the trace.
#ifndef SRC_HARNESS_RUNNER_H_
#define SRC_HARNESS_RUNNER_H_

#include <optional>
#include <string>

#include "src/exec/executor.h"
#include "src/harness/bug.h"
#include "src/profile/profiler.h"
#include "src/trace/tracer.h"

namespace rose {

struct RunOptions {
  uint64_t seed = 1;
  SimTime duration = Seconds(40);
  const FaultSchedule* schedule = nullptr;  // Reproduction runs.
  bool with_nemesis = false;                // Production runs.
  const Profile* profile = nullptr;         // Supplies AF monitoring sites.
  TracerConfig tracer_config;               // Mode/window/etc.
  bool with_tracer = true;
  // When false the tracer still runs (its virtual-time costs are part of the
  // simulated execution) but the window is never dumped into the outcome —
  // for runs that only need the bug verdict, e.g. confirmBug reruns.
  bool want_trace = true;
};

struct RunOutcome {
  bool bug = false;
  Trace trace;
  ExecutionFeedback feedback;
  TracerStats tracer_stats;
  std::string logs;
  uint64_t client_ops_completed = 0;
  SimTime virtual_duration = 0;
};

// Thread-safety contract: a BugRunner holds only a pointer to an immutable
// BugSpec, and every run builds a fresh SimWorld, tracer, executor, and
// nemesis from scratch — runs share no mutable state. RunOnce and
// RunProfiling are therefore const and safe to call concurrently from the
// parallel diagnosis engine, provided the BugSpec honors its side of the
// contract: `deploy` must be a pure factory (capture configuration by
// value, allocate everything inside the passed-in SimWorld, and never touch
// shared mutable state). All registered specs follow this — their deploy
// closures capture option structs by value and their BinaryInfo instances
// are `static const` (thread-safe magic-static initialization, immutable
// afterwards).
class BugRunner {
 public:
  explicit BugRunner(const BugSpec* spec) : spec_(spec) {}

  const BugSpec& spec() const { return *spec_; }

  // Failure-free profiling run (paper §4.2): counts function/syscall
  // frequencies and learns the benign-fault baseline.
  Profile RunProfiling(uint64_t seed) const;

  // One execution with the given options. Safe for concurrent invocation
  // (see the class contract above); each call is a pure function of
  // (spec, options).
  RunOutcome RunOnce(const RunOptions& options) const;

  // Obtains a buggy "production" trace per the spec (nemesis retries or the
  // manual trigger schedule). Returns nullopt if the bug never surfaced.
  std::optional<Trace> ObtainProductionTrace(const Profile& profile, uint64_t base_seed,
                                             int* attempts_used = nullptr) const;

 private:
  const BugSpec* spec_;
};

}  // namespace rose

#endif  // SRC_HARNESS_RUNNER_H_
