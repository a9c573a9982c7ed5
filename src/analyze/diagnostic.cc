#include "src/analyze/diagnostic.h"

#include "src/common/strings.h"

namespace rose {

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string_view DiagCodeName(DiagCode code) {
  switch (code) {
    case DiagCode::kAfterFaultMissing:
      return "SL001";
    case DiagCode::kAfterFaultCycle:
      return "SL002";
    case DiagCode::kAfterFaultForward:
      return "SL003";
    case DiagCode::kOffsetWithoutEnter:
      return "SL004";
    case DiagCode::kDuplicateSyscallCount:
      return "SL005";
    case DiagCode::kUnknownNode:
      return "SL006";
    case DiagCode::kPersistentShadow:
      return "SL007";
    case DiagCode::kBadNth:
      return "SL008";
    case DiagCode::kBadCount:
      return "SL009";
    case DiagCode::kBadFunctionId:
      return "SL010";
    case DiagCode::kBadOffset:
      return "SL011";
    case DiagCode::kEmptyPartitionGroup:
      return "SL012";
    case DiagCode::kUnknownFunction:
      return "SL013";
    case DiagCode::kNoTargetNode:
      return "SL014";
    case DiagCode::kBadTime:
      return "SL015";
    case DiagCode::kNonMonotonicTimestamp:
      return "TV101";
    case DiagCode::kOrphanPid:
      return "TV102";
    case DiagCode::kScfWithOkErrno:
      return "TV103";
    case DiagCode::kUnknownAfFunction:
      return "TV104";
    case DiagCode::kBadTraceMagic:
      return "TB201";
    case DiagCode::kBadTraceVersion:
      return "TB202";
    case DiagCode::kTruncatedTrace:
      return "TB203";
    case DiagCode::kCorruptTraceFrame:
      return "TB204";
    case DiagCode::kMalformedTraceFrame:
      return "TB205";
    case DiagCode::kTraceFileUnreadable:
      return "TB206";
    case DiagCode::kCausalOrderViolation:
      return "TB301";
    case DiagCode::kCausalUnmatchedFault:
      return "TB302";
    case DiagCode::kCausalInconsistentTrace:
      return "TB303";
    case DiagCode::kCausalCommutedOrder:
      return "TB304";
  }
  return "??";
}

std::string Diagnostic::ToString() const {
  std::string where;
  if (fault_index >= 0) {
    where = StrFormat(" fault#%d", fault_index);
  } else if (event_index >= 0) {
    where = StrFormat(" event#%d", event_index);
  }
  std::string out = StrFormat("%s %s%s: %s", std::string(DiagCodeName(code)).c_str(),
                              std::string(SeverityName(severity)).c_str(), where.c_str(),
                              message.c_str());
  if (!hint.empty()) {
    out += StrFormat(" (hint: %s)", hint.c_str());
  }
  return out;
}

bool HasErrors(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& diag : diags) {
    if (diag.severity == Severity::kError) {
      return true;
    }
  }
  return false;
}

std::vector<Diagnostic> OfCode(const std::vector<Diagnostic>& diags, DiagCode code) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& diag : diags) {
    if (diag.code == code) {
      out.push_back(diag);
    }
  }
  return out;
}

}  // namespace rose
