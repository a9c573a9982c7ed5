// trace_explorer — watch Rose's production tracer at work.
//
// Runs a 5-node RaftKV cluster under a Jepsen-style nemesis with the
// lightweight tracer attached, dumps the sliding window, prints the raw
// events grouped by type, and shows what the diagnosis front-end extracts
// from them (candidate faults, benign-fault reduction).
//
// Usage:
//   ./build/examples/trace_explorer [seed] [--save FILE] [--stats]
//   ./build/examples/trace_explorer --load FILE [--stats]
//   ./build/examples/trace_explorer --merge A B [C...] [--save FILE] [--stats]
//
//   --save FILE   write the dumped window to FILE — binary container unless
//                 FILE ends in .txt (then a display-only one-event-per-line
//                 listing, which --load refuses with TB201)
//   --load FILE   skip the simulated run and explore a saved binary dump
//                 instead (mapped, then decoded)
//   --merge ...   merge saved per-node traces (Trace::Merge, the dump's
//                 canonicalization over their concatenation): timestamp-
//                 ordered, ties in argument order, strings re-interned into
//                 one pool; combine with --save to persist the result
//   --stats       print window statistics (events by type and node, string
//                 pool size, window time span, encoded sizes) — rendered
//                 from the rose::obs registry (src/obs/trace_report.h)
//   --stats-out FILE  write the rose::obs metrics snapshot (YAML) to FILE
//
// Exit status: 0 on success; 1 when a loaded file carries error-severity
// container diagnostics (TB2xx — truncation, CRC damage, unreadable file),
// even if intact frames still produced events.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/analyze/trace_validator.h"
#include "src/causal/causal_graph.h"
#include "src/causal/feasibility.h"
#include "src/diagnose/extract.h"
#include "src/harness/bug_registry.h"
#include "src/harness/runner.h"
#include "src/obs/trace_report.h"
#include "src/trace/mapped_trace.h"
#include "src/trace/trace_io.h"

namespace {

// Canonical --help text, diffed verbatim against docs/cli.md by the
// docs_drift ctest (tools/check_docs.sh); keep the two in sync.
constexpr char kHelp[] =
    R"(usage: trace_explorer [seed] [flags]
       trace_explorer --load FILE [flags]
       trace_explorer --merge A B [C...] [flags]

Watch Rose's production tracer at work: run a RaftKV cluster under a
nemesis with the tracer attached, dump the sliding window, print the raw
events, and show the diagnosis front-end's fault extraction. Or explore a
saved dump instead of running the simulation.

positional arguments:
  seed              simulation seed for the live run (default 1234)

flags:
  --save FILE       write the dumped window to FILE (binary container, or
                    a display-only one-event-per-line listing when FILE
                    ends in .txt; listings cannot be loaded back)
  --load FILE       explore a saved binary dump instead of running; the
                    file is mapped, then decoded
  --merge A B ...   merge saved per-node traces (timestamp-ordered, ties
                    in argument order); combine with --save to persist
  --stats           print window statistics from the rose::obs registry
                    (events by kind and node, occupancy, pool, sizes);
                    loaded traces add mapped-bytes and resident rows
  --stats-out FILE  write the rose::obs metrics snapshot (YAML) to FILE
                    (see docs/metrics.md)
  --causal          print the happens-before analysis (rose::causal): chain
                    and edge statistics, the fault-event order matrix
                    ('<' row happens-before column, '>' the converse, '.'
                    concurrent), commutative fault pairs, and any TB303
                    causal-consistency findings
  --help            show this help and exit

exit status: 0 on success; 1 when a loaded file carries error-severity
container diagnostics (TB2xx), even if intact frames produced events.
)";

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1234;
  std::string save_path;
  std::string load_path;
  std::string stats_out;
  std::vector<std::string> merge_paths;
  bool merging = false;
  bool want_stats = false;
  bool want_causal = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kHelp, stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--save") == 0 && i + 1 < argc) {
      save_path = argv[++i];
      merging = false;
    } else if (std::strcmp(argv[i], "--load") == 0 && i + 1 < argc) {
      load_path = argv[++i];
      merging = false;
    } else if (std::strcmp(argv[i], "--merge") == 0) {
      merging = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
      merging = false;
    } else if (std::strcmp(argv[i], "--causal") == 0) {
      want_causal = true;
      merging = false;
    } else if (std::strcmp(argv[i], "--stats-out") == 0 && i + 1 < argc) {
      stats_out = argv[++i];
      merging = false;
    } else if (merging) {
      merge_paths.push_back(argv[i]);
    } else {
      seed = static_cast<uint64_t>(std::atoll(argv[i]));
    }
  }

  rose::Trace trace;
  // The mapped dump for --load; `view` below reads its decoded trace (a
  // copy is made only if --save needs to re-encode).
  rose::MappedTrace mapped;
  rose::Profile profile;
  const rose::Profile* profile_for_extract = nullptr;
  // Set when a loaded file carried error diagnostics; the tool keeps going
  // (intact frames are still worth exploring) but exits nonzero.
  bool load_damaged = false;

  if (!merge_paths.empty()) {
    if (merge_paths.size() < 2) {
      std::fprintf(stderr, "trace_explorer: --merge needs at least two files\n");
      return 2;
    }
    std::vector<rose::Trace> inputs;
    for (const std::string& path : merge_paths) {
      std::vector<rose::Diagnostic> diags;
      rose::Trace input = rose::LoadTraceFile(path, &diags);
      std::printf("--- loaded %s: %zu events ---\n", path.c_str(), input.size());
      for (const rose::Diagnostic& diag : diags) {
        std::printf("  %s\n", diag.ToString().c_str());
      }
      if (rose::HasErrors(diags)) {
        load_damaged = true;
      }
      inputs.push_back(std::move(input));
    }
    trace = rose::Trace::Merge(inputs);
    std::printf("--- merged %zu traces: %zu events ---\n", inputs.size(), trace.size());
  } else if (!load_path.empty()) {
    mapped = rose::MappedTrace::OpenFile(load_path);
    std::printf("--- loaded %s: %zu events ---\n", load_path.c_str(), mapped.event_count());
    for (const rose::Diagnostic& diag : mapped.diagnostics()) {
      std::printf("  %s\n", diag.ToString().c_str());
    }
    if (rose::HasErrors(mapped.diagnostics())) {
      // Keep exploring whatever survived, but fail the invocation: scripts
      // must not mistake a truncated dump for a good one.
      load_damaged = true;
      if (mapped.event_count() == 0) {
        return 1;
      }
    }
  } else {
    // Borrow the RedisRaft-42 deployment (any guest works; this one crashes
    // nodes often enough to make an interesting trace).
    const rose::BugSpec* spec = rose::FindBug("RedisRaft-42");
    if (spec == nullptr) {
      return 1;
    }
    rose::BugRunner runner(spec);

    std::printf("--- phase 1: profiling (failure-free run) ---\n");
    profile = runner.RunProfiling(seed);
    profile_for_extract = &profile;
    std::printf("monitored (infrequent) functions: %zu\n", profile.monitored_functions.size());
    for (int32_t fid : profile.monitored_functions) {
      std::printf("  uprobe site: %s\n", spec->binary->NameOf(fid).c_str());
    }
    std::printf("benign fault signatures learned: %zu\n\n",
                profile.benign_scf_signatures.size());

    std::printf("--- phase 2: production run under nemesis ---\n");
    rose::RunOptions options;
    options.seed = seed;
    options.duration = spec->run_duration;
    options.profile = &profile;
    options.with_nemesis = true;
    rose::RunOutcome outcome = runner.RunOnce(options);
    std::printf("bug manifested: %s; trace window holds %zu events\n\n",
                outcome.bug ? "yes" : "no", outcome.trace.size());
    trace = std::move(outcome.trace);
  }

  // Every read path below goes through a view: backed by the mapped file for
  // --load, by the owning Trace otherwise.
  const rose::TraceView view = mapped.valid() ? mapped.view() : rose::TraceView(trace);

  std::map<rose::EventType, int> counts;
  for (const rose::TraceEvent& event : view) {
    counts[event.type]++;
  }
  std::printf("event mix: SCF=%d AF=%d ND=%d PS=%d\n", counts[rose::EventType::kSCF],
              counts[rose::EventType::kAF], counts[rose::EventType::kND],
              counts[rose::EventType::kPS]);
  std::printf("last 12 events of the window:\n");
  for (size_t i = view.size() > 12 ? view.size() - 12 : 0; i < view.size(); i++) {
    std::printf("  %s\n", view[i].ToLine(view.pool()).c_str());
  }

  std::printf("\n--- static trace validation (rose::analyze) ---\n");
  rose::TraceValidateOptions validate_options;
  validate_options.profile = profile_for_extract;
  const std::vector<rose::Diagnostic> trace_diags =
      rose::TraceValidator(validate_options).Validate(view);
  if (trace_diags.empty()) {
    std::printf("trace passes validation: timestamps monotonic, pids attributed, "
                "SCF errnos real, AF ids profiled.\n");
  } else {
    std::printf("%zu diagnostic(s):\n", trace_diags.size());
    for (const rose::Diagnostic& diag : trace_diags) {
      std::printf("  %s\n", diag.ToString().c_str());
    }
  }

  std::printf("\n--- fault extraction (diagnosis front-end) ---\n");
  const rose::ExtractionResult extraction =
      rose::ExtractFaults(view, profile_for_extract != nullptr ? *profile_for_extract
                                                               : rose::Profile{});
  std::printf("%d raw fault events; %d removed as benign (FR=%.0f%%); %zu candidates:\n",
              extraction.total_fault_events, extraction.removed_benign,
              extraction.fr_percent, extraction.faults.size());
  for (const rose::CandidateFault& fault : extraction.faults) {
    std::printf("  t=%.3fs  %s\n", rose::ToSeconds(fault.ts), fault.Label().c_str());
  }

  if (want_causal) {
    std::printf("\n--- happens-before analysis (rose::causal) ---\n");
    const rose::CausalGraph causal(view);
    int edge_kinds[4] = {0, 0, 0, 0};
    for (const rose::CausalEdge& edge : causal.edges()) {
      edge_kinds[static_cast<int>(edge.kind)]++;
    }
    std::printf("%zu events across %zu causal chains; %zu cross-chain edges "
                "(fd-order=%d crash-barrier=%d restart-barrier=%d send-receive=%d)\n",
                causal.size(), causal.chain_count(), causal.edges().size(), edge_kinds[0],
                edge_kinds[1], edge_kinds[2], edge_kinds[3]);
    for (const rose::Diagnostic& diag : causal.diagnostics()) {
      std::printf("  %s\n", diag.ToString().c_str());
    }

    const std::vector<uint32_t>& faults = causal.fault_events();
    // The matrix is quadratic in rows; past 16 fault events it stops being
    // readable anyway, so larger summaries are truncated with a note.
    constexpr size_t kMatrixCap = 16;
    const size_t shown = faults.size() < kMatrixCap ? faults.size() : kMatrixCap;
    std::printf("fault-event order matrix (%zu of %zu fault events; "
                "'<' row happens-before column, '>' converse, '.' concurrent):\n",
                shown, faults.size());
    for (size_t row = 0; row < shown; row++) {
      std::string cells;
      for (size_t col = 0; col < shown; col++) {
        if (row == col) {
          cells += ' ';
        } else {
          const int order = causal.FaultOrder(row, col);
          cells += order < 0 ? '<' : order > 0 ? '>' : '.';
        }
      }
      const rose::TraceEvent& event = view[faults[row]];
      std::printf("  F%-2zu |%s|  %s\n", row, cells.c_str(),
                  event.ToLine(view.pool()).c_str());
    }

    const rose::FeasibilityChecker checker(&causal, view);
    const auto pairs = checker.CommutativePairs();
    std::printf("%zu commutative pair(s) — concurrent and disjoint in scope, so "
                "either injection order explores the same class:\n", pairs.size());
    constexpr size_t kPairCap = 20;
    for (size_t i = 0; i < pairs.size() && i < kPairCap; i++) {
      std::printf("  F%u <-> F%u\n", pairs[i].first, pairs[i].second);
    }
    if (pairs.size() > kPairCap) {
      std::printf("  ... and %zu more\n", pairs.size() - kPairCap);
    }
  }

  if (want_stats) {
    // One code path for window statistics: the rose::obs registry renders the
    // report; lint_schedule --trace prints the same format.
    std::printf("%s",
                rose::RenderTraceStats(view, &rose::MetricRegistry::Global()).c_str());
    if (!load_path.empty()) {
      // resident estimate: the decoded event vector plus the pool's entry
      // table and its copied strings; the container bytes stay in the
      // (page-cached) mapping.
      const size_t resident = view.size() * sizeof(rose::TraceEvent) +
                              view.pool().size() * 8 + view.pool().payload_bytes();
      std::printf("mapped bytes: %zu\n", mapped.mapped_bytes());
      std::printf("resident estimate: %zu bytes\n", resident);
    }
  }

  if (!stats_out.empty()) {
    if (!rose::WriteStatsFile(stats_out)) {
      std::fprintf(stderr, "trace_explorer: cannot write %s\n", stats_out.c_str());
      return 2;
    }
    std::printf("metrics snapshot written to %s\n", stats_out.c_str());
  }

  if (!save_path.empty()) {
    const bool text = save_path.size() > 4 &&
                      save_path.compare(save_path.size() - 4, 4, ".txt") == 0;
    if (mapped.valid()) {
      // Re-encoding is the one step that needs an owning Trace, so the
      // mapped handle's trace is copied here and nowhere else.
      trace = mapped.Promote();
    }
    if (!rose::SaveTraceFile(save_path, trace, text)) {
      std::fprintf(stderr, "trace_explorer: cannot write %s\n", save_path.c_str());
      return 2;
    }
    std::printf("\nsaved %zu events to %s (%s)\n", trace.size(), save_path.c_str(),
                text ? "display listing" : "binary");
  }
  return load_damaged ? 1 : 0;
}
