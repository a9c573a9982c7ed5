// Microbenchmarks (google-benchmark) for the tracer hot path: ring-buffer
// pushes, syscall-exit probes in each tracer mode, uprobe hits, event
// serialization, and YAML round trips. These are host-time measurements of
// the library itself (not the simulated cost model).
#include <benchmark/benchmark.h>

#include "src/harness/world.h"
#include "src/schedule/fault_schedule.h"
#include "src/trace/ring_buffer.h"
#include "src/trace/tracer.h"

namespace rose {
namespace {

void BM_RingBufferPush(benchmark::State& state) {
  RingBuffer<TraceEvent> ring(static_cast<size_t>(state.range(0)));
  TraceEvent event;
  event.type = EventType::kAF;
  event.info = AfInfo{100, 7};
  for (auto _ : state) {
    event.ts++;
    ring.Push(event);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingBufferPush)->Arg(1024)->Arg(1 << 20);

void BM_RingBufferSnapshot(benchmark::State& state) {
  RingBuffer<int> ring(static_cast<size_t>(state.range(0)));
  for (int i = 0; i < state.range(0) * 2; i++) {
    ring.Push(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.Snapshot());
  }
}
BENCHMARK(BM_RingBufferSnapshot)->Arg(1024)->Arg(65536);

struct TracedWorld {
  explicit TracedWorld(TracerMode mode) : world(1) {
    world.kernel.RegisterNode(0, "10.0.0.1");
    pid = world.kernel.Spawn(0, "bench");
    TracerConfig config;
    config.mode = mode;
    config.monitored_functions = {7};
    tracer.emplace(&world.kernel, nullptr, config);
    tracer->Attach();
    SimKernel::OpenFlags flags;
    flags.create = true;
    fd = static_cast<int32_t>(world.kernel.Open(pid, "/bench", flags).value);
  }
  SimWorld world;
  Pid pid = kNoPid;
  int32_t fd = -1;
  std::optional<Tracer> tracer;
};

void BM_SyscallExitProbeRoseMode(benchmark::State& state) {
  TracedWorld traced(TracerMode::kRose);
  const std::string payload(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(traced.world.kernel.Write(traced.pid, traced.fd, payload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyscallExitProbeRoseMode);

void BM_SyscallExitProbeFullMode(benchmark::State& state) {
  TracedWorld traced(TracerMode::kFull);
  const std::string payload(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(traced.world.kernel.Write(traced.pid, traced.fd, payload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyscallExitProbeFullMode);

void BM_FailedSyscallRecord(benchmark::State& state) {
  TracedWorld traced(TracerMode::kRose);
  for (auto _ : state) {
    benchmark::DoNotOptimize(traced.world.kernel.Stat(traced.pid, "/missing"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailedSyscallRecord);

void BM_UprobeHit(benchmark::State& state) {
  TracedWorld traced(TracerMode::kRose);
  for (auto _ : state) {
    traced.world.kernel.FunctionEnter(traced.pid, 7);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UprobeHit);

void BM_TraceEventSerialize(benchmark::State& state) {
  StringPool pool;
  TraceEvent event;
  event.ts = 123456789;
  event.node = 2;
  event.type = EventType::kSCF;
  event.info = ScfInfo{101, Sys::kOpenAt, 5, pool.Intern("/data/edits.new"), Err::kEIO};
  for (auto _ : state) {
    benchmark::DoNotOptimize(event.ToLine(pool));
  }
}
BENCHMARK(BM_TraceEventSerialize);

void BM_ScheduleYamlRoundTrip(benchmark::State& state) {
  FaultSchedule schedule;
  schedule.name = "bench";
  for (int i = 0; i < 5; i++) {
    ScheduledFault fault;
    fault.kind = FaultKind::kProcessCrash;
    fault.target_node = i;
    fault.conditions.push_back(Condition::AtTime(Seconds(i)));
    if (i > 0) {
      fault.conditions.push_back(Condition::AfterFault(i - 1));
    }
    schedule.faults.push_back(fault);
  }
  for (auto _ : state) {
    FaultSchedule parsed;
    benchmark::DoNotOptimize(FaultSchedule::FromYaml(schedule.ToYaml(), &parsed));
  }
}
BENCHMARK(BM_ScheduleYamlRoundTrip);

}  // namespace
}  // namespace rose

BENCHMARK_MAIN();
