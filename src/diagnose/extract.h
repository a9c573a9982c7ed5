// Fault extraction from a buggy production trace (paper §4.5, Level 1 prep).
//
// Turns raw trace events into candidate faults:
//   - discards benign SCFs by diffing against the profiling baseline (the
//     paper's FR% column measures this reduction);
//   - deduplicates repeated identical SCFs;
//   - collapses crash loops (a panic-restart-panic cascade is one fault);
//   - groups overlapping ND events into a single partition fault, inferring
//     the isolated node from pair degrees.
#ifndef SRC_DIAGNOSE_EXTRACT_H_
#define SRC_DIAGNOSE_EXTRACT_H_

#include <string>
#include <vector>

#include "src/profile/profiler.h"
#include "src/schedule/fault_schedule.h"
#include "src/trace/event.h"

namespace rose {

struct CandidateFault {
  FaultKind kind = FaultKind::kProcessCrash;
  // The node the fault applies to. For partitions: the isolated node (also
  // the node whose AF history contextualizes the fault).
  NodeId node = kNoNode;
  SimTime ts = 0;

  // kSyscallFailure:
  Sys sys = Sys::kOpen;
  Err err = Err::kEIO;
  std::string filename;

  // kProcessPause:
  SimTime pause_duration = 0;

  // kNetworkPartition:
  std::vector<std::string> group_a;
  std::vector<std::string> group_b;
  SimTime nd_duration = 0;

  std::string Label() const;
};

struct ExtractionResult {
  // Chronological candidate faults.
  std::vector<CandidateFault> faults;
  // Raw fault-shaped events in the trace before any filtering.
  int total_fault_events = 0;
  int removed_benign = 0;
  int collapsed_crashes = 0;
  // The paper's FR%: share of potential faults removed by the clean-trace diff.
  double fr_percent = 0;
};

struct ExtractOptions {
  // Crashes of the same node closer than this are one crash loop. A
  // panic-on-boot crash follows its predecessor by exactly the supervisor
  // restart delay (2 s) plus recovery microseconds; a genuinely new fault
  // needs at least a heartbeat of post-boot activity first.
  SimTime crash_collapse_gap = Millis(2050);
  // Disable the benign diff (ablation A1).
  bool use_benign_filter = true;
};

// `trace` is a read-only view: candidate faults detach from it (filenames
// and ip groups become owned strings), so the result outlives the trace.
ExtractionResult ExtractFaults(TraceView trace, const Profile& profile,
                               const ExtractOptions& options = {});

// Priority order for contextualization: PS first, then ND, then SCF,
// chronological within each class (paper §4.5.1). Returns indices into
// `faults`.
std::vector<size_t> PrioritizeFaults(const std::vector<CandidateFault>& faults);

}  // namespace rose

#endif  // SRC_DIAGNOSE_EXTRACT_H_
