// Structured diagnostics emitted by Rose's static analysis passes.
//
// Both the schedule linter and the trace validator report findings as
// Diagnostic records: a stable machine-checkable code (asserted by tests and
// matched by the diagnosis engine's pruning logic), a severity, the index of
// the offending schedule fault or trace event, a human-readable message, and
// a hint describing how to repair the input.
//
// Severity semantics:
//   kError   — the input is statically unsatisfiable or self-contradictory;
//              executing it is guaranteed wasted work. The executor rejects
//              it and the engine prunes it without a run.
//   kWarning — suspicious but executable (e.g. a bare kFunctionOffset
//              condition, which the executor matches without requiring a
//              prior kFunctionEnter). Reported, never pruned on.
#ifndef SRC_ANALYZE_DIAGNOSTIC_H_
#define SRC_ANALYZE_DIAGNOSTIC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rose {

enum class Severity : int8_t { kWarning = 0, kError };

std::string_view SeverityName(Severity severity);

enum class DiagCode : int16_t {
  // --- Schedule lints (SL...) ---
  kAfterFaultMissing = 0,   // SL001: kAfterFault references an out-of-range fault.
  kAfterFaultCycle,         // SL002: kAfterFault dependencies form a cycle.
  kAfterFaultForward,       // SL003: kAfterFault references a later fault (order inversion).
  kOffsetWithoutEnter,      // SL004: kFunctionOffset with no prior kFunctionEnter of that fn.
  kDuplicateSyscallCount,   // SL005: identical kSyscallCount repeated in one chain.
  kUnknownNode,             // SL006: fault targets a node the cluster never spawns.
  kPersistentShadow,        // SL007: persistent SCF shadows a later SCF on same sys+path.
  kBadNth,                  // SL008: syscall.nth < 1 can never match.
  kBadCount,                // SL009: kSyscallCount count < 1 can never be satisfied.
  kBadFunctionId,           // SL010: negative function id in a function condition.
  kBadOffset,               // SL011: negative intra-function offset.
  kEmptyPartitionGroup,     // SL012: partition with an empty ip group is a no-op.
  kUnknownFunction,         // SL013: function id not present in the binary's symbols.
  kNoTargetNode,            // SL014: non-partition fault with no target node.
  kBadTime,                 // SL015: negative kAtTime can never be reached.
  // --- Trace lints (TV...) ---
  kNonMonotonicTimestamp,   // TV101: event timestamp precedes its predecessor.
  kOrphanPid,               // TV102: event from a pid the run never spawned.
  kScfWithOkErrno,          // TV103: "failure" event carrying Err::kOk.
  kUnknownAfFunction,       // TV104: AF function id absent from the profile.
  // --- Binary trace container (TB...) ---
  kBadTraceMagic,           // TB201: input lacks the binary-trace magic.
  kBadTraceVersion,         // TB202: container version newer than this reader.
  kTruncatedTrace,          // TB203: stream ends mid-frame / without an end frame.
  kCorruptTraceFrame,       // TB204: frame payload fails its CRC32.
  kMalformedTraceFrame,     // TB205: frame payload does not decode.
  kTraceFileUnreadable,     // TB206: trace file missing or not readable.
  // --- Causal feasibility (TB3xx, src/causal) ---
  kCausalOrderViolation,    // TB301: schedule order contradicts the trace's happens-before order.
  kCausalUnmatchedFault,    // TB302: schedule fault matches no fault event in the trace.
  kCausalInconsistentTrace, // TB303: trace contradicts the causal model (pid on two nodes, ...).
  kCausalCommutedOrder,     // TB304: commuting concurrent faults in non-canonical order.
};

// Stable short form, e.g. "SL001" / "TV103" — what tests assert against and
// what the lint_schedule CLI prints.
std::string_view DiagCodeName(DiagCode code);

struct Diagnostic {
  DiagCode code = DiagCode::kAfterFaultMissing;
  Severity severity = Severity::kError;
  // Index of the offending fault in the schedule (schedule lints) or -1.
  int32_t fault_index = -1;
  // Index of the offending event in the trace (trace lints) or -1.
  int32_t event_index = -1;
  std::string message;
  std::string hint;

  // "SL001 error fault#2: message (hint)" — the CLI / log line form.
  std::string ToString() const;
};

// True when any diagnostic in `diags` has error severity.
bool HasErrors(const std::vector<Diagnostic>& diags);

// Diagnostics of exactly `code`, in order.
std::vector<Diagnostic> OfCode(const std::vector<Diagnostic>& diags, DiagCode code);

}  // namespace rose

#endif  // SRC_ANALYZE_DIAGNOSTIC_H_
