// Trace I/O benchmark: encoding, decoding and loading a full production
// window (1M events, the paper's dump size). Host-time measurements plus
// byte-size counters — the binary container's acceptance bar is an encoded
// size <= 50% of the display listing (BM_SerializeText).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/analyze/trace_validator.h"
#include "src/common/rng.h"
#include "src/trace/mapped_trace.h"
#include "src/trace/mmap_file.h"
#include "src/trace/trace_io.h"

namespace rose {
namespace {

constexpr int kWindowEvents = 1 << 20;  // The production ring-window size.

// A window shaped like a real dump: mostly AF events with SCF/ND/PS mixed
// in, strings drawn from a realistic working set (dozens of paths and ips,
// heavily repeated).
const Trace& Window() {
  static const Trace trace = [] {
    Rng rng(2026);
    Trace t;
    t.events().reserve(kWindowEvents);
    SimTime ts = 0;
    for (int i = 0; i < kWindowEvents; i++) {
      ts += static_cast<SimTime>(rng.NextBelow(2000));
      TraceEvent event;
      event.ts = ts;
      event.node = static_cast<NodeId>(rng.NextBelow(5));
      const uint64_t kind = rng.NextBelow(100);
      if (kind < 70) {
        event.type = EventType::kAF;
        event.info = AfInfo{static_cast<Pid>(100 + event.node),
                            static_cast<int32_t>(rng.NextBelow(48))};
      } else if (kind < 90) {
        event.type = EventType::kSCF;
        event.info = ScfInfo{static_cast<Pid>(100 + event.node), Sys::kWrite,
                             static_cast<int32_t>(rng.NextBelow(64)),
                             t.Intern("/data/store/segment." + std::to_string(rng.NextBelow(40))),
                             Err::kEIO};
      } else if (kind < 96) {
        event.type = EventType::kND;
        event.info = NdInfo{t.Intern("10.0.0." + std::to_string(1 + rng.NextBelow(5))),
                            t.Intern("10.0.0." + std::to_string(1 + rng.NextBelow(5))),
                            static_cast<SimTime>(rng.NextBelow(9'000'000)),
                            rng.NextBelow(2000)};
      } else {
        event.type = EventType::kPS;
        event.info = PsInfo{static_cast<Pid>(100 + event.node),
                            rng.NextBool(0.5) ? ProcState::kCrashed : ProcState::kPaused,
                            static_cast<SimTime>(rng.NextBelow(5'000'000))};
      }
      t.Append(event);
    }
    return t;
  }();
  return trace;
}

void BM_SerializeText(benchmark::State& state) {
  const Trace& window = Window();
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = window.Serialize();
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.SetItemsProcessed(state.iterations() * kWindowEvents);
  state.counters["encoded_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SerializeText)->Unit(benchmark::kMillisecond);

void BM_SerializeBinary(benchmark::State& state) {
  const Trace& window = Window();
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string encoded = window.SerializeBinary();
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded.data());
  }
  state.SetItemsProcessed(state.iterations() * kWindowEvents);
  state.counters["encoded_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SerializeBinary)->Unit(benchmark::kMillisecond);

void BM_ParseBinary(benchmark::State& state) {
  const std::string encoded = Window().SerializeBinary();
  for (auto _ : state) {
    const Trace parsed = Trace::ParseBinary(encoded);
    benchmark::DoNotOptimize(parsed.size());
  }
  state.SetItemsProcessed(state.iterations() * kWindowEvents);
}
BENCHMARK(BM_ParseBinary)->Unit(benchmark::kMillisecond);

void BM_StreamBinary(benchmark::State& state) {
  // Streaming iteration without materializing a Trace (frame_events_
  // reused per frame).
  const std::string encoded = Window().SerializeBinary();
  for (auto _ : state) {
    TraceReader reader(encoded);
    TraceEvent event;
    uint64_t count = 0;
    while (reader.Next(&event)) {
      count++;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kWindowEvents);
}
BENCHMARK(BM_StreamBinary)->Unit(benchmark::kMillisecond);

// The binary window written to disk once — the on-disk dump both load-path
// benchmarks read. Lives for the process; size printed by the first user.
const std::string& WindowFile() {
  static const std::string path = [] {
    const std::string p =
        (std::filesystem::temp_directory_path() / "rose_bench_window.trc").string();
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    const std::string encoded = Window().SerializeBinary();
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    return p;
  }();
  return path;
}

void BM_LoadFileHeap(benchmark::State& state) {
  // The pre-mmap pipeline: read the whole file into a heap buffer, then
  // ParseBinary copies every pool string again into a private arena.
  const std::string& path = WindowFile();
  for (auto _ : state) {
    std::vector<Diagnostic> diags;
    const Trace loaded = LoadTraceFile(path, &diags);
    benchmark::DoNotOptimize(loaded.size());
  }
  state.SetItemsProcessed(state.iterations() * kWindowEvents);
}
BENCHMARK(BM_LoadFileHeap)->Unit(benchmark::kMillisecond);

void BM_LoadFileMmap(benchmark::State& state) {
  // The mapped pipeline: mmap + ParseBinary over the mapping, so the file
  // bytes skip the heap read. Compare against BM_LoadFileHeap.
  const std::string& path = WindowFile();
  for (auto _ : state) {
    const MappedTrace mapped = MappedTrace::OpenFile(path);
    benchmark::DoNotOptimize(mapped.event_count());
  }
  state.SetItemsProcessed(state.iterations() * kWindowEvents);
}
BENCHMARK(BM_LoadFileMmap)->Unit(benchmark::kMillisecond);

void BM_OpenToFirstEventHeap(benchmark::State& state) {
  // Latency to the FIRST usable event via the owning loader — pays the full
  // read + parse of all 1M events before event 0 is visible.
  const std::string& path = WindowFile();
  for (auto _ : state) {
    std::vector<Diagnostic> diags;
    const Trace loaded = LoadTraceFile(path, &diags);
    benchmark::DoNotOptimize(loaded[0].ts);
  }
}
BENCHMARK(BM_OpenToFirstEventHeap)->Unit(benchmark::kMillisecond);

void BM_OpenToFirstEventMmap(benchmark::State& state) {
  // Latency to the first event via mmap + streaming reader: map the file,
  // decode only the leading frames. The acceptance bar is >= 3x faster than
  // BM_OpenToFirstEventHeap (pages fault in lazily; no up-front copy).
  const std::string& path = WindowFile();
  for (auto _ : state) {
    MmapTraceFile file = MmapTraceFile::Open(path);
    TraceReader reader(file.bytes());
    TraceEvent event;
    const bool ok = reader.Next(&event);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(event.ts);
  }
}
BENCHMARK(BM_OpenToFirstEventMmap)->Unit(benchmark::kMillisecond);

void BM_CanonicalBlobHash(benchmark::State& state) {
  // Serve admission's cache-key path: hash the raw container without
  // constructing a Trace (streams through the reusable-line fast path).
  const std::string encoded = Window().SerializeBinary();
  for (auto _ : state) {
    uint64_t hash = 0;
    CanonicalBlobHash(encoded, &hash);
    benchmark::DoNotOptimize(hash);
  }
  state.SetItemsProcessed(state.iterations() * kWindowEvents);
}
BENCHMARK(BM_CanonicalBlobHash)->Unit(benchmark::kMillisecond);

void BM_MergeRemap(benchmark::State& state) {
  // Merge (concatenate with per-input pool remapping, then FromWindow's
  // stable sort and remap), 4 nodes x 64k events.
  std::vector<Trace> inputs;
  for (uint64_t node = 0; node < 4; node++) {
    Rng rng(node + 1);
    Trace t;
    SimTime ts = 0;
    for (int i = 0; i < 65536; i++) {
      ts += static_cast<SimTime>(rng.NextBelow(4000));
      TraceEvent event;
      event.ts = ts;
      event.node = static_cast<NodeId>(node);
      event.type = EventType::kSCF;
      event.info = ScfInfo{static_cast<Pid>(100 + node), Sys::kWrite, 3,
                           t.Intern("/data/f" + std::to_string(rng.NextBelow(20))), Err::kEIO};
      t.Append(event);
    }
    inputs.push_back(std::move(t));
  }
  for (auto _ : state) {
    const Trace merged = Trace::Merge(inputs);
    benchmark::DoNotOptimize(merged.size());
  }
  state.SetItemsProcessed(state.iterations() * 4 * 65536);
}
BENCHMARK(BM_MergeRemap)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rose

BENCHMARK_MAIN();
