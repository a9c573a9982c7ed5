#include "src/analyze/schedule_linter.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace rose {

namespace {

Diagnostic MakeDiag(DiagCode code, Severity severity, int32_t fault_index,
                    std::string message, std::string hint) {
  Diagnostic diag;
  diag.code = code;
  diag.severity = severity;
  diag.fault_index = fault_index;
  diag.message = std::move(message);
  diag.hint = std::move(hint);
  return diag;
}

// DFS colors for AfterFault cycle detection.
enum class Color : int8_t { kWhite = 0, kGray, kBlack };

// Returns true if a cycle is reachable from `fault`; marks every fault on the
// gray path when one is found.
bool FindCycle(size_t fault, const std::vector<std::vector<size_t>>& deps,
               std::vector<Color>* colors, std::vector<bool>* in_cycle) {
  (*colors)[fault] = Color::kGray;
  bool cyclic = false;
  for (size_t dep : deps[fault]) {
    if ((*colors)[dep] == Color::kGray) {
      (*in_cycle)[dep] = true;
      (*in_cycle)[fault] = true;
      cyclic = true;
    } else if ((*colors)[dep] == Color::kWhite && FindCycle(dep, deps, colors, in_cycle)) {
      (*in_cycle)[fault] = true;
      cyclic = true;
    }
  }
  (*colors)[fault] = Color::kBlack;
  return cyclic;
}

}  // namespace

std::vector<Diagnostic> ScheduleLinter::Lint(const FaultSchedule& schedule) const {
  std::vector<Diagnostic> diags;
  const size_t n = schedule.faults.size();

  // AfterFault dependency graph over in-range references (out-of-range ones
  // are reported individually and excluded from cycle analysis).
  std::vector<std::vector<size_t>> deps(n);

  for (size_t i = 0; i < n; i++) {
    const ScheduledFault& fault = schedule.faults[i];
    const auto index = static_cast<int32_t>(i);

    // --- Target node ---------------------------------------------------------
    if (fault.target_node == kNoNode) {
      if (fault.kind != FaultKind::kNetworkPartition) {
        diags.push_back(MakeDiag(
            DiagCode::kNoTargetNode, Severity::kWarning, index,
            StrFormat("%s fault has no target node", fault.Label().c_str()),
            "set target_node to the node the fault should hit"));
      }
    } else if (!options_.known_nodes.empty() &&
               options_.known_nodes.count(fault.target_node) == 0) {
      diags.push_back(MakeDiag(
          DiagCode::kUnknownNode, Severity::kError, index,
          StrFormat("fault targets node %d, which the cluster never spawns",
                    fault.target_node),
          "target one of the deployed nodes"));
    }

    // --- Kind-specific spec fields ------------------------------------------
    if (fault.kind == FaultKind::kSyscallFailure && fault.syscall.nth < 1) {
      diags.push_back(MakeDiag(
          DiagCode::kBadNth, Severity::kError, index,
          StrFormat("syscall fault nth=%d can never match (nth is 1-based)",
                    fault.syscall.nth),
          "use nth >= 1"));
    }
    if (fault.kind == FaultKind::kNetworkPartition &&
        (fault.network.group_a.empty() || fault.network.group_b.empty())) {
      diags.push_back(MakeDiag(DiagCode::kEmptyPartitionGroup, Severity::kWarning, index,
                               "partition with an empty ip group installs no drop rules",
                               "put at least one ip on each side of the partition"));
    }

    // --- Condition chain -----------------------------------------------------
    std::set<int32_t> entered;  // Function ids with a prior kFunctionEnter.
    std::vector<const Condition*> syscall_counts;
    for (size_t c = 0; c < fault.conditions.size(); c++) {
      const Condition& cond = fault.conditions[c];
      switch (cond.kind) {
        case Condition::Kind::kAfterFault: {
          if (cond.fault_index < 0 || static_cast<size_t>(cond.fault_index) >= n) {
            diags.push_back(MakeDiag(
                DiagCode::kAfterFaultMissing, Severity::kError, index,
                StrFormat("after_fault(%d) references a fault outside the schedule "
                          "(%zu faults)",
                          cond.fault_index, n),
                "reference an existing fault index"));
            break;
          }
          deps[i].push_back(static_cast<size_t>(cond.fault_index));
          if (static_cast<size_t>(cond.fault_index) > i) {
            diags.push_back(MakeDiag(
                DiagCode::kAfterFaultForward, Severity::kWarning, index,
                StrFormat("after_fault(%d) waits on a later fault; production order "
                          "is inverted",
                          cond.fault_index),
                "order faults as they occurred in the production trace"));
          }
          break;
        }
        case Condition::Kind::kFunctionEnter:
          if (cond.function_id < 0) {
            diags.push_back(MakeDiag(DiagCode::kBadFunctionId, Severity::kError, index,
                                     StrFormat("function condition with negative id %d",
                                               cond.function_id),
                                     "use a function id from the binary's symbol table"));
          } else {
            if (options_.binary != nullptr && options_.binary->Find(cond.function_id) == nullptr) {
              diags.push_back(MakeDiag(
                  DiagCode::kUnknownFunction, Severity::kWarning, index,
                  StrFormat("function id %d is not in the binary's symbol table",
                            cond.function_id),
                  "check the profile/binary the schedule was generated against"));
            }
            entered.insert(cond.function_id);
          }
          break;
        case Condition::Kind::kFunctionOffset:
          if (cond.function_id < 0) {
            diags.push_back(MakeDiag(DiagCode::kBadFunctionId, Severity::kError, index,
                                     StrFormat("offset condition with negative id %d",
                                               cond.function_id),
                                     "use a function id from the binary's symbol table"));
          } else if (cond.offset < 0) {
            diags.push_back(MakeDiag(
                DiagCode::kBadOffset, Severity::kError, index,
                StrFormat("offset condition with negative offset %d", cond.offset),
                "use a non-negative intra-function offset"));
          } else {
            if (options_.binary != nullptr && options_.binary->Find(cond.function_id) == nullptr) {
              diags.push_back(MakeDiag(
                  DiagCode::kUnknownFunction, Severity::kWarning, index,
                  StrFormat("function id %d is not in the binary's symbol table",
                            cond.function_id),
                  "check the profile/binary the schedule was generated against"));
            }
            if (entered.count(cond.function_id) == 0) {
              diags.push_back(MakeDiag(
                  DiagCode::kOffsetWithoutEnter, Severity::kWarning, index,
                  StrFormat("offset(%d+%d) has no preceding function(%d) condition",
                            cond.function_id, cond.offset, cond.function_id),
                  "add a kFunctionEnter for the same function to tighten the context"));
            }
          }
          break;
        case Condition::Kind::kSyscallCount: {
          if (cond.count < 1) {
            diags.push_back(MakeDiag(
                DiagCode::kBadCount, Severity::kError, index,
                StrFormat("syscall_count with count=%d can never be satisfied", cond.count),
                "use count >= 1"));
          }
          for (const Condition* prev : syscall_counts) {
            if (prev->sys == cond.sys && prev->path_filter == cond.path_filter &&
                prev->count == cond.count) {
              diags.push_back(MakeDiag(
                  DiagCode::kDuplicateSyscallCount, Severity::kWarning, index,
                  StrFormat("duplicate syscall_count(%s,%s,%d) in one condition chain",
                            std::string(SysName(cond.sys)).c_str(),
                            cond.path_filter.c_str(), cond.count),
                  "merge duplicates into a single condition with a higher count"));
              break;
            }
          }
          syscall_counts.push_back(&cond);
          break;
        }
        case Condition::Kind::kAtTime:
          if (cond.at_time < 0) {
            diags.push_back(MakeDiag(
                DiagCode::kBadTime, Severity::kError, index,
                StrFormat("at_time(%lld) is before the run starts",
                          static_cast<long long>(cond.at_time)),
                "use a non-negative relative time"));
          }
          break;
      }
    }
  }

  // --- AfterFault cycles -----------------------------------------------------
  std::vector<Color> colors(n, Color::kWhite);
  std::vector<bool> in_cycle(n, false);
  for (size_t i = 0; i < n; i++) {
    if (colors[i] == Color::kWhite) {
      FindCycle(i, deps, &colors, &in_cycle);
    }
  }
  for (size_t i = 0; i < n; i++) {
    if (in_cycle[i]) {
      diags.push_back(MakeDiag(
          DiagCode::kAfterFaultCycle, Severity::kError, static_cast<int32_t>(i),
          "after_fault conditions form a cycle; no fault in it can ever fire",
          "break the cycle so fault order is a DAG"));
    }
  }

  // --- Persistent SCF shadowing ---------------------------------------------
  for (size_t i = 0; i < n; i++) {
    const ScheduledFault& first = schedule.faults[i];
    if (first.kind != FaultKind::kSyscallFailure || !first.syscall.persistent) {
      continue;
    }
    for (size_t j = i + 1; j < n; j++) {
      const ScheduledFault& later = schedule.faults[j];
      if (later.kind != FaultKind::kSyscallFailure || later.syscall.sys != first.syscall.sys ||
          later.target_node != first.target_node) {
        continue;
      }
      if (first.syscall.path_filter.empty() ||
          first.syscall.path_filter == later.syscall.path_filter) {
        diags.push_back(MakeDiag(
            DiagCode::kPersistentShadow, Severity::kWarning, static_cast<int32_t>(j),
            StrFormat("persistent %s fault #%zu shadows this fault on the same "
                      "syscall+path; it will never inject",
                      std::string(SysName(first.syscall.sys)).c_str(), i),
            "drop the shadowed fault or narrow the persistent fault's path filter"));
      }
    }
  }

  return diags;
}

namespace {

void AppendCondition(const Condition& cond, std::string* out) {
  switch (cond.kind) {
    case Condition::Kind::kAfterFault:
      *out += StrFormat("after(%d)", cond.fault_index);
      break;
    case Condition::Kind::kFunctionEnter:
      *out += StrFormat("enter(%d)", cond.function_id);
      break;
    case Condition::Kind::kFunctionOffset:
      *out += StrFormat("offset(%d,%d)", cond.function_id, cond.offset);
      break;
    case Condition::Kind::kSyscallCount:
      *out += StrFormat("count(%s,%s,%d)", std::string(SysName(cond.sys)).c_str(),
                        cond.path_filter.c_str(), cond.count);
      break;
    case Condition::Kind::kAtTime:
      *out += StrFormat("at(%lld)", static_cast<long long>(cond.at_time));
      break;
  }
}

}  // namespace

std::string CanonicalForm(const FaultSchedule& schedule) {
  std::string out;
  for (const ScheduledFault& fault : schedule.faults) {
    out += StrFormat("%s|%d|", std::string(FaultKindName(fault.kind)).c_str(),
                     fault.target_node);
    switch (fault.kind) {
      case FaultKind::kSyscallFailure:
        out += StrFormat("%s,%s,%s,%d,%d", std::string(SysName(fault.syscall.sys)).c_str(),
                         std::string(ErrName(fault.syscall.err)).c_str(),
                         fault.syscall.path_filter.c_str(), fault.syscall.nth,
                         fault.syscall.persistent ? 1 : 0);
        break;
      case FaultKind::kProcessCrash:
        break;
      case FaultKind::kProcessPause:
        out += StrFormat("%lld", static_cast<long long>(fault.process.pause_duration));
        break;
      case FaultKind::kNetworkPartition: {
        // A partition is symmetric: partition(a, b) == partition(b, a), and
        // group membership is a set. Sort within and across groups.
        std::vector<std::string> a = fault.network.group_a;
        std::vector<std::string> b = fault.network.group_b;
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        if (b < a) {
          std::swap(a, b);
        }
        out += StrFormat("%s/%s,%lld", Join(a, ",").c_str(), Join(b, ",").c_str(),
                         static_cast<long long>(fault.network.duration));
        break;
      }
    }
    out += "|";
    for (size_t c = 0; c < fault.conditions.size(); c++) {
      if (c > 0) {
        out += ";";
      }
      AppendCondition(fault.conditions[c], &out);
    }
    out += "\n";
  }
  return out;
}

uint64_t CanonicalHash(const FaultSchedule& schedule) {
  return Fnv1a(kFnvOffsetBasis, CanonicalForm(schedule));
}

}  // namespace rose
