// lint_schedule — static schedule linting from the command line.
//
// Reads a fault schedule in Rose's YAML form and runs rose::analyze's
// ScheduleLinter over it: unsatisfiable condition chains, order cycles,
// shadowed faults, degenerate field values. Prints each diagnostic with its
// stable code plus the schedule's canonical form and equivalence hash.
//
// Usage:
//   ./build/examples/lint_schedule schedule.yaml
//   ./build/examples/lint_schedule --demo          # lint a deliberately broken schedule
//   ./build/examples/lint_schedule --trace FILE    # validate a saved trace instead
//   ./build/examples/lint_schedule schedule.yaml --against trace.bin
//   cat schedule.yaml | ./build/examples/lint_schedule
//
// --trace runs rose::analyze's TraceValidator over a binary trace dump (text
// listings are display-only and report TB201). --against TRACE additionally checks the schedule's
// enforced injection order against the trace's happens-before order
// (rose::causal) and prints the feasibility verdict.
//
// Exit codes: 0 clean (warnings allowed), 1 error-severity lint or
// feasibility findings, 2 input failure — unreadable or unparseable files,
// including TB2xx container damage. Scripts can rely on the distinction:
// 1 means the input was read and judged bad, 2 means it could not be judged.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/analyze/schedule_linter.h"
#include "src/analyze/trace_validator.h"
#include "src/causal/causal_graph.h"
#include "src/causal/feasibility.h"
#include "src/common/strings.h"
#include "src/obs/trace_report.h"
#include "src/trace/mapped_trace.h"
#include "src/trace/trace_io.h"

namespace {

// Canonical --help text, diffed verbatim against docs/cli.md by the
// docs_drift ctest (tools/check_docs.sh); keep the two in sync.
constexpr char kHelp[] =
    R"(usage: lint_schedule [schedule.yaml|-] [--against TRACE]
       lint_schedule --demo
       lint_schedule --trace FILE

Static analysis from the command line (rose::analyze). Reads a fault
schedule in Rose's YAML form and runs the ScheduleLinter over it:
unsatisfiable condition chains, order cycles, shadowed faults, degenerate
field values. Prints each diagnostic with its stable code plus the
schedule's canonical form and equivalence hash. Reads stdin when no file
is given (or the file is -).

flags:
  --demo          lint a deliberately broken built-in schedule
  --trace FILE    validate a saved binary trace dump instead with the
                  TraceValidator (text listings report TB201); window
                  statistics are rendered from the rose::obs registry
  --against TRACE additionally check the schedule's enforced injection
                  order against TRACE's happens-before order (rose::causal)
                  and print the feasibility verdict: feasible, infeasible
                  (TB301 — the trace contradicts the order), or unordered
                  (TB302 — some fault matches no trace event)
  --help          show this help and exit

exit status: 0 clean (warnings allowed), 1 error-severity lint or
feasibility findings, 2 input failure (unreadable or unparseable files,
including TB2xx container damage).
)";

rose::FaultSchedule DemoSchedule() {
  using rose::Condition;
  rose::FaultSchedule schedule;
  schedule.name = "demo-broken";
  {
    // Persistent write failure with no path filter: shadows fault #2.
    rose::ScheduledFault fault;
    fault.kind = rose::FaultKind::kSyscallFailure;
    fault.target_node = 0;
    fault.syscall.sys = rose::Sys::kWrite;
    fault.syscall.err = rose::Err::kEIO;
    fault.syscall.persistent = true;
    schedule.faults.push_back(fault);
  }
  {
    // Crash waiting on itself — an after_fault cycle.
    rose::ScheduledFault fault;
    fault.kind = rose::FaultKind::kProcessCrash;
    fault.target_node = 1;
    fault.conditions.push_back(Condition::AfterFault(1));
    schedule.faults.push_back(fault);
  }
  {
    // Shadowed write failure, nth=0 on top.
    rose::ScheduledFault fault;
    fault.kind = rose::FaultKind::kSyscallFailure;
    fault.target_node = 0;
    fault.syscall.sys = rose::Sys::kWrite;
    fault.syscall.err = rose::Err::kENOSPC;
    fault.syscall.path_filter = "/data/txnlog";
    fault.syscall.nth = 0;
    schedule.faults.push_back(fault);
  }
  {
    // Offset condition with no enclosing function-enter context.
    rose::ScheduledFault fault;
    fault.kind = rose::FaultKind::kProcessPause;
    fault.target_node = 2;
    fault.process.pause_duration = rose::Seconds(4);
    fault.conditions.push_back(Condition::FunctionOffset(12, 0x20));
    schedule.faults.push_back(fault);
  }
  return schedule;
}

int LintTrace(const char* path) {
  // The validator and the stats renderer only read, so they take a view of
  // the mapped dump's decoded trace.
  const rose::MappedTrace mapped = rose::MappedTrace::OpenFile(path);
  const std::vector<rose::Diagnostic>& load_diags = mapped.diagnostics();
  if (!rose::OfCode(load_diags, rose::DiagCode::kTraceFileUnreadable).empty()) {
    std::fprintf(stderr, "lint_schedule: cannot open %s\n", path);
    return 2;
  }
  const rose::TraceView trace = mapped.view();
  std::printf("trace: %s\n", path);
  // Same rendering path as trace_explorer --stats: the rose::obs registry is
  // the one source for window statistics (no per-tool tallies).
  std::printf("%s", rose::RenderTraceStats(trace, &rose::MetricRegistry::Global(),
                                           /*with_encoded_sizes=*/false)
                        .c_str());

  std::vector<rose::Diagnostic> diags = load_diags;
  const std::vector<rose::Diagnostic> validation = rose::TraceValidator().Validate(trace);
  diags.insert(diags.end(), validation.begin(), validation.end());
  if (diags.empty()) {
    std::printf("no findings: trace is well-formed.\n");
    return 0;
  }
  std::printf("%zu finding(s):\n", diags.size());
  for (const rose::Diagnostic& diag : diags) {
    std::printf("  %s\n", diag.ToString().c_str());
  }
  // Container damage (TB2xx) means the input itself could not be trusted —
  // an I/O failure (2), not a lint verdict on well-read events (1).
  if (rose::HasErrors(load_diags)) {
    return 2;
  }
  return rose::HasErrors(diags) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* schedule_arg = nullptr;
  const char* against_path = nullptr;
  bool demo = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kHelp, stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      return LintTrace(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--against") == 0 && i + 1 < argc) {
      against_path = argv[++i];
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else {
      schedule_arg = argv[i];
    }
  }
  rose::FaultSchedule schedule;
  if (demo) {
    schedule = DemoSchedule();
  } else {
    std::string text;
    if (schedule_arg != nullptr && std::strcmp(schedule_arg, "-") != 0) {
      std::ifstream in(schedule_arg);
      if (!in) {
        std::fprintf(stderr, "lint_schedule: cannot open %s\n", schedule_arg);
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    } else {
      std::ostringstream buf;
      buf << std::cin.rdbuf();
      text = buf.str();
    }
    if (!rose::FaultSchedule::FromYaml(text, &schedule)) {
      std::fprintf(stderr, "lint_schedule: input is not a Rose schedule YAML\n");
      return 2;
    }
  }

  std::printf("schedule: %s  (%zu faults: %s)\n",
              schedule.name.empty() ? "<unnamed>" : schedule.name.c_str(),
              schedule.size(), schedule.Summary().c_str());
  std::printf("canonical hash: %016llx\n",
              static_cast<unsigned long long>(rose::CanonicalHash(schedule)));
  std::printf("canonical form:\n");
  for (const std::string& line : rose::Split(rose::CanonicalForm(schedule), '\n')) {
    if (!line.empty()) {
      std::printf("  %s\n", line.c_str());
    }
  }

  std::vector<rose::Diagnostic> diags = rose::ScheduleLinter().Lint(schedule);
  if (diags.empty()) {
    std::printf("\nno findings: schedule is statically satisfiable.\n");
  } else {
    std::printf("\n%zu finding(s):\n", diags.size());
    for (const rose::Diagnostic& diag : diags) {
      std::printf("  %s\n", diag.ToString().c_str());
    }
  }

  if (against_path != nullptr) {
    // Read-only feasibility check: map and view, never parse into a Trace.
    const rose::MappedTrace mapped = rose::MappedTrace::OpenFile(against_path);
    const std::vector<rose::Diagnostic>& load_diags = mapped.diagnostics();
    if (rose::HasErrors(load_diags)) {
      std::fprintf(stderr, "lint_schedule: cannot read trace %s: %s\n", against_path,
                   load_diags.front().ToString().c_str());
      return 2;
    }
    const rose::TraceView trace = mapped.view();
    const rose::CausalGraph causal(trace);
    const rose::FeasibilityChecker checker(&causal, trace);
    const rose::FeasibilityReport report = checker.Check(schedule);
    std::printf("\nfeasibility against %s (%zu events, %zu fault events): %s%s\n",
                against_path, trace.size(), causal.fault_events().size(),
                std::string(rose::FeasibilityVerdictName(report.verdict)).c_str(),
                report.canonical_order ? "" : ", non-canonical commuting order");
    for (size_t i = 0; i < report.mapped_events.size(); i++) {
      if (report.mapped_events[i] >= 0) {
        const auto event = static_cast<size_t>(report.mapped_events[i]);
        std::printf("  fault %zu -> trace event %zu: %s\n", i, event,
                    trace[event].ToLine(trace.pool()).c_str());
      } else {
        std::printf("  fault %zu -> no matching trace event\n", i);
      }
    }
    for (const rose::Diagnostic& diag : report.diagnostics) {
      std::printf("  %s\n", diag.ToString().c_str());
    }
    diags.insert(diags.end(), report.diagnostics.begin(), report.diagnostics.end());
  }
  return rose::HasErrors(diags) ? 1 : 0;
}
