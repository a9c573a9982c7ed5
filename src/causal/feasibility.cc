#include "src/causal/feasibility.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace rose {
namespace {

bool PathMatches(std::string_view filter, std::string_view filename) {
  return filter.empty() || filename.find(filter) != std::string_view::npos;
}

// Does `event` look like the production occurrence of `fault`?
bool EventMatches(const ScheduledFault& fault, const TraceEvent& event, TraceView trace) {
  switch (fault.kind) {
    case FaultKind::kSyscallFailure:
      return event.type == EventType::kSCF && event.scf().sys == fault.syscall.sys &&
             event.scf().err == fault.syscall.err &&
             (fault.target_node == kNoNode || event.node == fault.target_node) &&
             PathMatches(fault.syscall.path_filter, trace.str(event.scf().filename));
    case FaultKind::kProcessCrash:
      return event.type == EventType::kPS && event.ps().state == ProcState::kCrashed &&
             (fault.target_node == kNoNode || event.node == fault.target_node);
    case FaultKind::kProcessPause:
      return event.type == EventType::kPS && event.ps().state == ProcState::kPaused &&
             (fault.target_node == kNoNode || event.node == fault.target_node);
    case FaultKind::kNetworkPartition:
      return event.type == EventType::kND &&
             (fault.target_node == kNoNode || event.node == fault.target_node);
  }
  return false;
}

}  // namespace

std::string_view FeasibilityVerdictName(FeasibilityVerdict verdict) {
  switch (verdict) {
    case FeasibilityVerdict::kFeasible:
      return "feasible";
    case FeasibilityVerdict::kInfeasible:
      return "infeasible";
    case FeasibilityVerdict::kUnordered:
      return "unordered";
  }
  return "?";
}

int32_t FeasibilityChecker::MatchFault(const ScheduledFault& fault,
                                       std::vector<bool>* used) const {
  // A timed trigger pins the match: among matching events, prefer the one
  // whose timestamp is closest to the trigger (candidate faults carry their
  // production timestamp into kAtTime, so permuted schedules still map each
  // fault to its own event). Without one, the first unused match wins —
  // extraction dedups SCFs by signature, so that is the event it mined.
  SimTime at_time = 0;
  bool has_at_time = false;
  for (const Condition& condition : fault.conditions) {
    if (condition.kind == Condition::Kind::kAtTime) {
      at_time = condition.at_time;
      has_at_time = true;
    }
  }

  const std::vector<uint32_t>& faults = graph_->fault_events();
  int32_t best = -1;
  int64_t best_distance = std::numeric_limits<int64_t>::max();
  for (size_t f = 0; f < faults.size(); f++) {
    if ((*used)[f]) {
      continue;
    }
    const uint32_t event_index = faults[f];
    if (!EventMatches(fault, trace_[event_index], trace_)) {
      continue;
    }
    if (!has_at_time) {
      (*used)[f] = true;
      return static_cast<int32_t>(event_index);
    }
    const int64_t distance = std::llabs(trace_[event_index].ts - at_time);
    if (distance < best_distance) {
      best_distance = distance;
      best = static_cast<int32_t>(f);
    }
  }
  if (best < 0) {
    return -1;
  }
  (*used)[static_cast<size_t>(best)] = true;
  return static_cast<int32_t>(faults[static_cast<size_t>(best)]);
}

FeasibilityReport FeasibilityChecker::Check(const FaultSchedule& schedule) const {
  MetricRegistry::Global().GetCounter("causal.feasibility_checks")->Inc();
  FeasibilityReport report;
  if (graph_ == nullptr) {
    report.verdict = FeasibilityVerdict::kUnordered;
    return report;
  }
  const size_t n = schedule.faults.size();

  std::vector<bool> used(graph_->fault_events().size(), false);
  report.mapped_events.reserve(n);
  for (size_t i = 0; i < n; i++) {
    const int32_t event = MatchFault(schedule.faults[i], &used);
    report.mapped_events.push_back(event);
    if (event < 0) {
      Diagnostic diag;
      diag.code = DiagCode::kCausalUnmatchedFault;
      diag.severity = Severity::kWarning;
      diag.fault_index = static_cast<int32_t>(i);
      diag.message = StrFormat("%s fault matches no fault event in the trace",
                               schedule.faults[i].Label().c_str());
      diag.hint = "the trace cannot order this fault; feasibility is undecided";
      report.diagnostics.push_back(std::move(diag));
      report.verdict = FeasibilityVerdict::kUnordered;
    }
  }

  // Enforced injection order: the transitive closure of after_fault
  // dependencies (before[i][j] = fault j must be injected before fault i).
  std::vector<std::vector<bool>> before(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; i++) {
    for (const Condition& condition : schedule.faults[i].conditions) {
      if (condition.kind == Condition::Kind::kAfterFault && condition.fault_index >= 0 &&
          static_cast<size_t>(condition.fault_index) < n) {
        before[i][static_cast<size_t>(condition.fault_index)] = true;
      }
    }
  }
  for (size_t k = 0; k < n; k++) {
    for (size_t i = 0; i < n; i++) {
      if (before[i][k]) {
        for (size_t j = 0; j < n; j++) {
          if (before[k][j]) {
            before[i][j] = true;
          }
        }
      }
    }
  }

  // TB301: the schedule demands j-then-i while the trace proves i's event
  // happens-before j's — the production causal structure cannot be
  // recreated in that order.
  for (size_t i = 0; i < n; i++) {
    for (size_t j = 0; j < n; j++) {
      if (!before[i][j] || report.mapped_events[i] < 0 || report.mapped_events[j] < 0) {
        continue;
      }
      const auto event_i = static_cast<uint32_t>(report.mapped_events[i]);
      const auto event_j = static_cast<uint32_t>(report.mapped_events[j]);
      if (graph_->HappensBefore(event_i, event_j)) {
        Diagnostic diag;
        diag.code = DiagCode::kCausalOrderViolation;
        diag.severity = Severity::kError;
        diag.fault_index = static_cast<int32_t>(i);
        diag.message = StrFormat(
            "fault #%zu must follow fault #%zu, but its production event #%u happens-before "
            "event #%u",
            i, j, event_i, event_j);
        diag.hint = "restore the production order of these faults";
        report.diagnostics.push_back(std::move(diag));
        report.verdict = FeasibilityVerdict::kInfeasible;
      }
    }
  }

  // TB304: an enforced adjacent pair of commuting faults in inverse trace
  // order — the trace-ordered representative covers this class.
  for (size_t k = 0; k + 1 < n; k++) {
    if (!before[k + 1][k] || report.mapped_events[k] < 0 || report.mapped_events[k + 1] < 0) {
      continue;
    }
    const auto event_a = static_cast<uint32_t>(report.mapped_events[k]);
    const auto event_b = static_cast<uint32_t>(report.mapped_events[k + 1]);
    if (event_a > event_b && Commute(event_b, event_a)) {
      Diagnostic diag;
      diag.code = DiagCode::kCausalCommutedOrder;
      diag.severity = Severity::kWarning;
      diag.fault_index = static_cast<int32_t>(k);
      diag.message = StrFormat(
          "faults #%zu and #%zu commute (concurrent, disjoint scope) but are ordered against "
          "the trace",
          k, k + 1);
      diag.hint = "the trace-ordered schedule explores the same equivalence class";
      report.diagnostics.push_back(std::move(diag));
      report.canonical_order = false;
    }
  }
  return report;
}

bool FeasibilityChecker::Commute(uint32_t a, uint32_t b) const {
  if (graph_ == nullptr || !graph_->Concurrent(a, b)) {
    return false;
  }
  const TraceEvent& event_a = trace_[a];
  const TraceEvent& event_b = trace_[b];
  // Disjoint scope: different (known) nodes, and not two partitions — those
  // both mutate the shared fabric no matter which node observed them.
  if (event_a.node == kNoNode || event_b.node == kNoNode || event_a.node == event_b.node) {
    return false;
  }
  return event_a.type != EventType::kND || event_b.type != EventType::kND;
}

std::vector<std::pair<uint32_t, uint32_t>> FeasibilityChecker::CommutativePairs() const {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  if (graph_ == nullptr) {
    return pairs;
  }
  const std::vector<uint32_t>& faults = graph_->fault_events();
  for (uint32_t a = 0; a < faults.size(); a++) {
    for (uint32_t b = a + 1; b < faults.size(); b++) {
      if (Commute(faults[a], faults[b])) {
        pairs.emplace_back(a, b);
      }
    }
  }
  return pairs;
}

}  // namespace rose
