#include "src/analyze/trace_validator.h"

#include <string>

#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/trace/trace_io.h"

namespace rose {

namespace {

Diagnostic MakeDiag(DiagCode code, Severity severity, int32_t event_index,
                    std::string message, std::string hint) {
  Diagnostic diag;
  diag.code = code;
  diag.severity = severity;
  diag.event_index = event_index;
  diag.message = std::move(message);
  diag.hint = std::move(hint);
  return diag;
}

// Pid carried by an event, or kNoPid for types without one (ND).
Pid PidOf(const TraceEvent& event) {
  switch (event.type) {
    case EventType::kSCF:
      return event.scf().pid;
    case EventType::kAF:
      return event.af().pid;
    case EventType::kPS:
      return event.ps().pid;
    case EventType::kND:
      return kNoPid;
  }
  return kNoPid;
}

}  // namespace

std::vector<Diagnostic> TraceValidator::Validate(TraceView trace) const {
  std::vector<Diagnostic> diags;
  SimTime prev_ts = 0;
  for (size_t i = 0; i < trace.size(); i++) {
    const TraceEvent& event = trace[i];
    const auto index = static_cast<int32_t>(i);

    if (event.ts < prev_ts) {
      diags.push_back(MakeDiag(
          DiagCode::kNonMonotonicTimestamp, Severity::kError, index,
          StrFormat("event at t=%lld precedes its predecessor at t=%lld",
                    static_cast<long long>(event.ts), static_cast<long long>(prev_ts)),
          "re-merge the per-node traces by timestamp"));
    }
    prev_ts = std::max(prev_ts, event.ts);

    if (event.type != EventType::kND) {
      const Pid pid = PidOf(event);
      if (pid < 0) {
        diags.push_back(MakeDiag(
            DiagCode::kOrphanPid, Severity::kError, index,
            StrFormat("%s event carries invalid pid %d",
                      std::string(EventTypeName(event.type)).c_str(), pid),
            "events must record the invoking process"));
      } else if (!options_.known_pids.empty() && options_.known_pids.count(pid) == 0) {
        diags.push_back(MakeDiag(
            DiagCode::kOrphanPid, Severity::kError, index,
            StrFormat("%s event from pid %d, which the run never spawned",
                      std::string(EventTypeName(event.type)).c_str(), pid),
            "check that per-node traces come from the same run"));
      }
    }

    if (event.type == EventType::kSCF && event.scf().err == Err::kOk) {
      diags.push_back(MakeDiag(
          DiagCode::kScfWithOkErrno, Severity::kError, index,
          StrFormat("SCF event for %s carries Err::kOk; successful syscalls are "
                    "not failures",
                    std::string(SysName(event.scf().sys)).c_str()),
          "only record syscalls whose result is an error"));
    }

    if (event.type == EventType::kAF && options_.profile != nullptr) {
      const int32_t fid = event.af().function_id;
      if (options_.profile->monitored_functions.count(fid) == 0 &&
          options_.profile->function_counts.count(fid) == 0) {
        diags.push_back(MakeDiag(
            DiagCode::kUnknownAfFunction, Severity::kWarning, index,
            StrFormat("AF event for function id %d, which the profile never saw", fid),
            "re-profile, or check the trace matches this profile"));
      }
    }
  }
  return diags;
}

uint64_t CanonicalTraceHash(TraceView trace) {
  uint64_t hash = kFnvOffsetBasis;
  std::string line;
  for (const TraceEvent& event : trace) {
    line.clear();
    event.AppendLine(&line, trace.pool());
    line.push_back('\n');
    hash = Fnv1a(hash, line);
  }
  return hash;
}

bool CanonicalBlobHash(std::string_view blob, uint64_t* hash_out,
                       std::vector<Diagnostic>* diags, size_t* event_count) {
  TraceReader reader(blob);
  uint64_t hash = kFnvOffsetBasis;
  size_t count = 0;
  std::string line;
  TraceEvent event;
  while (reader.Next(&event)) {
    line.clear();
    event.AppendLine(&line, reader.pool());
    line.push_back('\n');
    hash = Fnv1a(hash, line);
    count++;
  }
  if (diags != nullptr) {
    diags->insert(diags->end(), reader.diagnostics().begin(), reader.diagnostics().end());
  }
  if (event_count != nullptr) {
    *event_count = count;
  }
  if (hash_out != nullptr) {
    *hash_out = hash;
  }
  return reader.ok();
}

}  // namespace rose
