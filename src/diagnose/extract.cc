#include "src/diagnose/extract.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/common/strings.h"

namespace rose {

std::string CandidateFault::Label() const {
  switch (kind) {
    case FaultKind::kSyscallFailure:
      return StrFormat("SCF(%s,%s,%s)", std::string(SysName(sys)).c_str(), filename.c_str(),
                       std::string(ErrName(err)).c_str());
    case FaultKind::kProcessCrash:
      return StrFormat("PS(Crash)@n%d", node);
    case FaultKind::kProcessPause:
      return StrFormat("PS(Pause %.1fs)@n%d", ToSeconds(pause_duration), node);
    case FaultKind::kNetworkPartition:
      return StrFormat("ND(%s | %.1fs)", Join(group_a, ",").c_str(), ToSeconds(nd_duration));
  }
  return "?";
}

namespace {

// Groups overlapping ND events into partition faults. `nd_events` ids
// resolve against `trace`'s pool.
std::vector<CandidateFault> GroupNdEvents(TraceView trace,
                                          const std::vector<TraceEvent>& nd_events) {
  struct Group {
    SimTime begin = 0;
    SimTime end = 0;
    std::vector<NdInfo> members;
    NodeId node = kNoNode;
  };
  std::vector<Group> groups;
  for (const TraceEvent& event : nd_events) {
    const NdInfo& nd = event.nd();
    const SimTime begin = event.ts - nd.duration;
    const SimTime end = event.ts;
    bool placed = false;
    for (Group& group : groups) {
      if (begin <= group.end && end >= group.begin) {
        group.begin = std::min(group.begin, begin);
        group.end = std::max(group.end, end);
        group.members.push_back(nd);
        if (group.node == kNoNode) {
          group.node = event.node;
        }
        placed = true;
        break;
      }
    }
    if (!placed) {
      groups.push_back(Group{begin, end, {nd}, event.node});
    }
  }

  std::vector<CandidateFault> out;
  for (const Group& group : groups) {
    // The isolated endpoint is the ip participating in the most pairs.
    // Keys are resolved views into the trace's pool — ordered maps keep the
    // historical lexicographic tie-break, with no per-ip allocation.
    std::map<std::string_view, int> degree;
    SimTime max_duration = 0;
    for (const NdInfo& nd : group.members) {
      degree[trace.str(nd.src_ip)]++;
      degree[trace.str(nd.dst_ip)]++;
      max_duration = std::max(max_duration, nd.duration);
    }
    std::string_view isolated;
    int best = -1;
    for (const auto& [ip, count] : degree) {
      if (count > best) {
        best = count;
        isolated = ip;
      }
    }
    CandidateFault fault;
    fault.kind = FaultKind::kNetworkPartition;
    fault.ts = group.begin;
    fault.nd_duration = max_duration;
    fault.group_a = {std::string(isolated)};
    for (const auto& [ip, count] : degree) {
      if (ip != isolated) {
        fault.group_b.emplace_back(ip);
      }
    }
    fault.node = group.node;
    out.push_back(std::move(fault));
  }
  return out;
}

}  // namespace

ExtractionResult ExtractFaults(TraceView trace, const Profile& profile,
                               const ExtractOptions& options) {
  ExtractionResult result;
  std::vector<CandidateFault> faults;
  std::vector<TraceEvent> nd_events;
  std::set<std::string> seen_scf;
  std::map<NodeId, SimTime> last_crash;

  for (const TraceEvent& event : trace) {
    switch (event.type) {
      case EventType::kSCF: {
        const ScfInfo& scf = event.scf();
        const std::string filename(trace.str(scf.filename));
        result.total_fault_events++;
        const bool benign =
            options.use_benign_filter &&
            (profile.benign_scf_signatures.count(
                 ScfSignature(scf.sys, filename, scf.err)) != 0 ||
             profile.benign_scf_signatures.count(ScfSignature(scf.sys, "", scf.err)) != 0);
        if (benign) {
          result.removed_benign++;
          break;
        }
        const std::string dedup_key = StrFormat(
            "%d|%d|%s|%d", event.node, static_cast<int>(scf.sys), filename.c_str(),
            static_cast<int>(scf.err));
        if (!seen_scf.insert(dedup_key).second) {
          break;  // Repeat of an already-known failing call.
        }
        CandidateFault fault;
        fault.kind = FaultKind::kSyscallFailure;
        fault.node = event.node;
        fault.ts = event.ts;
        fault.sys = scf.sys;
        fault.err = scf.err;
        fault.filename = filename;
        faults.push_back(std::move(fault));
        break;
      }
      case EventType::kPS: {
        const PsInfo& ps = event.ps();
        result.total_fault_events++;
        if (ps.state == ProcState::kCrashed) {
          auto it = last_crash.find(event.node);
          if (it != last_crash.end() && event.ts - it->second <= options.crash_collapse_gap) {
            it->second = event.ts;  // Part of the same crash loop.
            result.collapsed_crashes++;
            break;
          }
          last_crash[event.node] = event.ts;
          CandidateFault fault;
          fault.kind = FaultKind::kProcessCrash;
          fault.node = event.node;
          fault.ts = event.ts;
          faults.push_back(std::move(fault));
        } else if (ps.state == ProcState::kPaused) {
          CandidateFault fault;
          fault.kind = FaultKind::kProcessPause;
          fault.node = event.node;
          fault.ts = event.ts;
          fault.pause_duration = ps.duration;
          faults.push_back(std::move(fault));
        }
        break;
      }
      case EventType::kND: {
        result.total_fault_events++;
        const NdInfo& nd = event.nd();
        if (options.use_benign_filter &&
            profile.benign_nd_pairs.count({std::string(trace.str(nd.src_ip)),
                                           std::string(trace.str(nd.dst_ip))}) != 0) {
          result.removed_benign++;
          break;
        }
        nd_events.push_back(event);
        break;
      }
      case EventType::kAF:
        break;
    }
  }

  std::vector<CandidateFault> partitions = GroupNdEvents(trace, nd_events);
  faults.insert(faults.end(), partitions.begin(), partitions.end());
  std::stable_sort(faults.begin(), faults.end(),
                   [](const CandidateFault& a, const CandidateFault& b) { return a.ts < b.ts; });
  result.faults = std::move(faults);
  result.fr_percent = result.total_fault_events == 0
                          ? 0.0
                          : 100.0 * static_cast<double>(result.removed_benign) /
                                static_cast<double>(result.total_fault_events);
  return result;
}

std::vector<size_t> PrioritizeFaults(const std::vector<CandidateFault>& faults) {
  std::vector<size_t> order;
  for (int pass = 0; pass < 3; pass++) {
    for (size_t i = 0; i < faults.size(); i++) {
      const FaultKind kind = faults[i].kind;
      const bool is_ps =
          kind == FaultKind::kProcessCrash || kind == FaultKind::kProcessPause;
      if ((pass == 0 && is_ps) || (pass == 1 && kind == FaultKind::kNetworkPartition) ||
          (pass == 2 && kind == FaultKind::kSyscallFailure)) {
        order.push_back(i);
      }
    }
  }
  return order;
}

}  // namespace rose
