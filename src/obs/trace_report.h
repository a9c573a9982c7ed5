#ifndef ROSE_OBS_TRACE_REPORT_H_
#define ROSE_OBS_TRACE_REPORT_H_

// Registry-backed window statistics shared by `trace_explorer --stats` and
// `lint_schedule --trace`. Both tools used to keep hand-rolled tallies that
// drifted apart; this is the one code path and the one output format.
//
// Lives in its own target (rose_obs_report) because it depends on rose_trace,
// while rose_obs itself must stay dependency-free so the tracer can link it.

#include <string>

#include "src/obs/metrics.h"
#include "src/trace/event.h"

namespace rose {

// Folds the trace's window statistics into `registry` —
//   counters  trace.events.{scf,af,nd,ps}, trace.events.node.<id>
//   gauges    trace.window.occupancy, trace.pool.strings,
//             trace.pool.payload_bytes
// — and returns the human-readable report both CLIs print.
// `with_encoded_sizes` additionally serializes the trace both ways to report
// binary-vs-text size (skipped where the extra work is unwanted).
// Takes a view so a mapped trace renders without a copy (an owning Trace
// converts implicitly).
std::string RenderTraceStats(TraceView trace, MetricRegistry* registry,
                             bool with_encoded_sizes = true);

}  // namespace rose

#endif  // ROSE_OBS_TRACE_REPORT_H_
