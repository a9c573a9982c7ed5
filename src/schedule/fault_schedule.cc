#include "src/schedule/fault_schedule.h"

#include <map>

#include "src/common/strings.h"

namespace rose {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSyscallFailure:
      return "syscall";
    case FaultKind::kProcessCrash:
      return "crash";
    case FaultKind::kProcessPause:
      return "pause";
    case FaultKind::kNetworkPartition:
      return "partition";
  }
  return "unknown";
}

Condition Condition::AfterFault(int32_t index) {
  Condition c;
  c.kind = Kind::kAfterFault;
  c.fault_index = index;
  return c;
}

Condition Condition::FunctionEnter(int32_t function_id) {
  Condition c;
  c.kind = Kind::kFunctionEnter;
  c.function_id = function_id;
  return c;
}

Condition Condition::FunctionOffset(int32_t function_id, int32_t offset) {
  Condition c;
  c.kind = Kind::kFunctionOffset;
  c.function_id = function_id;
  c.offset = offset;
  return c;
}

Condition Condition::SyscallCount(Sys sys, const std::string& path_filter, int32_t count) {
  Condition c;
  c.kind = Kind::kSyscallCount;
  c.sys = sys;
  c.path_filter = path_filter;
  c.count = count;
  return c;
}

Condition Condition::AtTime(SimTime at) {
  Condition c;
  c.kind = Kind::kAtTime;
  c.at_time = at;
  return c;
}

std::string Condition::ToString() const {
  switch (kind) {
    case Kind::kAfterFault:
      return StrFormat("after_fault(%d)", fault_index);
    case Kind::kFunctionEnter:
      return StrFormat("function(%d)", function_id);
    case Kind::kFunctionOffset:
      return StrFormat("offset(%d+%d)", function_id, offset);
    case Kind::kSyscallCount:
      return StrFormat("syscall_count(%s,%s,%d)", std::string(SysName(sys)).c_str(),
                       path_filter.c_str(), count);
    case Kind::kAtTime:
      return StrFormat("at_time(%lld)", static_cast<long long>(at_time));
  }
  return "?";
}

std::string ScheduledFault::Label() const {
  switch (kind) {
    case FaultKind::kSyscallFailure:
      return StrFormat("SCF(%s)", std::string(SysName(syscall.sys)).c_str());
    case FaultKind::kProcessCrash:
      return "PS(Crash)";
    case FaultKind::kProcessPause:
      return "PS(Pause)";
    case FaultKind::kNetworkPartition:
      return "ND";
  }
  return "?";
}

std::string FaultSchedule::Summary() const {
  // Collapse runs of identical labels into "label*N".
  std::vector<std::string> parts;
  size_t i = 0;
  while (i < faults.size()) {
    const std::string label = faults[i].Label();
    size_t j = i;
    while (j < faults.size() && faults[j].Label() == label) {
      j++;
    }
    const size_t run = j - i;
    parts.push_back(run > 1 ? StrFormat("%s*%zu", label.c_str(), run) : label);
    i = j;
  }
  return Join(parts, " + ");
}

std::string FaultSchedule::ToYaml() const {
  std::string out = "schedule:\n";
  out += StrFormat("  name: %s\n", name.c_str());
  out += "  faults:\n";
  for (const ScheduledFault& fault : faults) {
    out += StrFormat("    - kind: %s\n", std::string(FaultKindName(fault.kind)).c_str());
    out += StrFormat("      node: %d\n", fault.target_node);
    switch (fault.kind) {
      case FaultKind::kSyscallFailure:
        out += StrFormat("      sys: %s\n", std::string(SysName(fault.syscall.sys)).c_str());
        out += StrFormat("      errno: %s\n", std::string(ErrName(fault.syscall.err)).c_str());
        if (!fault.syscall.path_filter.empty()) {
          out += StrFormat("      path: %s\n", fault.syscall.path_filter.c_str());
        }
        out += StrFormat("      nth: %d\n", fault.syscall.nth);
        out += StrFormat("      persistent: %s\n", fault.syscall.persistent ? "true" : "false");
        break;
      case FaultKind::kProcessPause:
        out += StrFormat("      duration: %lld\n",
                         static_cast<long long>(fault.process.pause_duration));
        break;
      case FaultKind::kProcessCrash:
        break;
      case FaultKind::kNetworkPartition:
        out += StrFormat("      ips_in: %s\n", Join(fault.network.group_a, ",").c_str());
        out += StrFormat("      ips_out: %s\n", Join(fault.network.group_b, ",").c_str());
        out += StrFormat("      duration: %lld\n",
                         static_cast<long long>(fault.network.duration));
        break;
    }
    if (!fault.conditions.empty()) {
      out += "      conditions:\n";
      for (const Condition& cond : fault.conditions) {
        switch (cond.kind) {
          case Condition::Kind::kAfterFault:
            out += StrFormat("        - type: after_fault\n          fault: %d\n",
                             cond.fault_index);
            break;
          case Condition::Kind::kFunctionEnter:
            out += StrFormat("        - type: function\n          fid: %d\n",
                             cond.function_id);
            break;
          case Condition::Kind::kFunctionOffset:
            out += StrFormat("        - type: offset\n          fid: %d\n          off: %d\n",
                             cond.function_id, cond.offset);
            break;
          case Condition::Kind::kSyscallCount:
            out += StrFormat(
                "        - type: syscall_count\n          sys: %s\n          count: %d\n",
                std::string(SysName(cond.sys)).c_str(), cond.count);
            if (!cond.path_filter.empty()) {
              out += StrFormat("          path: %s\n", cond.path_filter.c_str());
            }
            break;
          case Condition::Kind::kAtTime:
            out += StrFormat("        - type: at_time\n          time: %lld\n",
                             static_cast<long long>(cond.at_time));
            break;
        }
      }
    }
  }
  return out;
}

namespace {

// Minimal parser for the YAML subset emitted by ToYaml(): "key: value" lines
// plus "- " list-item markers, with fixed indentation levels.
struct Line {
  int indent = 0;
  bool item = false;
  std::string key;
  std::string value;
};

bool ParseLine(const std::string& raw, Line* out) {
  // ToYaml prints values through %s, which a NUL would cut short: a line
  // with a control byte (other than tab or CR) cannot round-trip.
  for (const char ch : raw) {
    const auto byte = static_cast<unsigned char>(ch);
    if ((byte < 0x20 || byte == 0x7f) && ch != '\t' && ch != '\r') {
      return false;
    }
  }
  size_t i = 0;
  while (i < raw.size() && raw[i] == ' ') {
    i++;
  }
  if (i >= raw.size()) {
    return false;
  }
  out->indent = static_cast<int>(i);
  std::string_view rest = std::string_view(raw).substr(i);
  out->item = StartsWith(rest, "- ");
  if (out->item) {
    rest.remove_prefix(2);
    out->indent += 2;
  }
  const size_t colon = rest.find(':');
  if (colon == std::string_view::npos) {
    return false;
  }
  out->key = std::string(StripWhitespace(rest.substr(0, colon)));
  out->value = std::string(StripWhitespace(rest.substr(colon + 1)));
  return true;
}

}  // namespace

bool FaultSchedule::FromYaml(const std::string& text, FaultSchedule* out) {
  *out = FaultSchedule();
  ScheduledFault* fault = nullptr;
  Condition* cond = nullptr;
  bool in_conditions = false;

  for (const std::string& raw : Split(text, '\n')) {
    if (StripWhitespace(raw).empty()) {
      continue;
    }
    Line line;
    if (!ParseLine(raw, &line)) {
      return false;
    }
    if (line.key == "schedule" || line.key == "faults") {
      continue;
    }
    if (line.key == "name" && line.indent == 2) {
      out->name = line.value;
      continue;
    }
    if (line.item && line.key == "kind") {
      out->faults.emplace_back();
      fault = &out->faults.back();
      cond = nullptr;
      in_conditions = false;
      if (line.value == "syscall") {
        fault->kind = FaultKind::kSyscallFailure;
      } else if (line.value == "crash") {
        fault->kind = FaultKind::kProcessCrash;
      } else if (line.value == "pause") {
        fault->kind = FaultKind::kProcessPause;
      } else if (line.value == "partition") {
        fault->kind = FaultKind::kNetworkPartition;
      } else {
        return false;
      }
      continue;
    }
    if (fault == nullptr) {
      return false;
    }
    if (line.key == "conditions") {
      in_conditions = true;
      continue;
    }
    if (in_conditions && line.item && line.key == "type") {
      fault->conditions.emplace_back();
      cond = &fault->conditions.back();
      if (line.value == "after_fault") {
        cond->kind = Condition::Kind::kAfterFault;
      } else if (line.value == "function") {
        cond->kind = Condition::Kind::kFunctionEnter;
      } else if (line.value == "offset") {
        cond->kind = Condition::Kind::kFunctionOffset;
      } else if (line.value == "syscall_count") {
        cond->kind = Condition::Kind::kSyscallCount;
      } else if (line.value == "at_time") {
        cond->kind = Condition::Kind::kAtTime;
      } else {
        return false;
      }
      continue;
    }
    int64_t number = 0;
    const bool is_number = ParseInt64(line.value, &number);
    if (in_conditions && cond != nullptr) {
      if (line.key == "fault" && is_number) {
        cond->fault_index = static_cast<int32_t>(number);
      } else if (line.key == "fid" && is_number) {
        cond->function_id = static_cast<int32_t>(number);
      } else if (line.key == "off" && is_number) {
        cond->offset = static_cast<int32_t>(number);
      } else if (line.key == "sys") {
        SysFromName(line.value, &cond->sys);
      } else if (line.key == "count" && is_number) {
        cond->count = static_cast<int32_t>(number);
      } else if (line.key == "path") {
        cond->path_filter = line.value;
      } else if (line.key == "time" && is_number) {
        cond->at_time = number;
      }
      continue;
    }
    if (line.key == "node" && is_number) {
      fault->target_node = static_cast<NodeId>(number);
    } else if (line.key == "sys") {
      SysFromName(line.value, &fault->syscall.sys);
    } else if (line.key == "errno") {
      fault->syscall.err = ErrFromName(line.value);
    } else if (line.key == "path") {
      fault->syscall.path_filter = line.value;
    } else if (line.key == "nth" && is_number) {
      fault->syscall.nth = static_cast<int32_t>(number);
    } else if (line.key == "persistent") {
      fault->syscall.persistent = line.value == "true";
    } else if (line.key == "duration" && is_number) {
      if (fault->kind == FaultKind::kProcessPause) {
        fault->process.pause_duration = number;
      } else {
        fault->network.duration = number;
      }
    } else if (line.key == "ips_in") {
      fault->network.group_a = Split(line.value, ',');
    } else if (line.key == "ips_out") {
      fault->network.group_b = Split(line.value, ',');
    }
  }
  return true;
}

}  // namespace rose
