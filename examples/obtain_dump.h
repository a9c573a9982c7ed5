// The dump a serve example submits, shared by rose_served and rose_routerd:
// a saved pair (BASE.trc + BASE.profile) or one generated by simulating
// phases 1-2 for the bug. Either way it is one LoadedTrace whose container
// bytes ship over the wire as-is (ServeClient::SubmitBlob).
#ifndef EXAMPLES_OBTAIN_DUMP_H_
#define EXAMPLES_OBTAIN_DUMP_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "src/harness/bug_registry.h"
#include "src/harness/runner.h"
#include "src/serve/protocol.h"
#include "src/trace/trace_io.h"

namespace rose_examples {

struct DumpPayload {
  rose::LoadedTrace dump;    // Read from BASE.trc, or generated.
  std::string profile_text;  // SerializeProfile() form.
};

// `dump_base` empty = generate the dump for `bug_id` at `seed`. Errors go
// to stderr prefixed with `tool`.
inline bool ObtainDump(const char* tool, const std::string& bug_id, const std::string& dump_base,
                       uint64_t seed, DumpPayload* out) {
  if (!dump_base.empty()) {
    out->dump = rose::LoadTraceFile(dump_base + ".trc");
    if (rose::HasErrors(out->dump.diagnostics)) {
      for (const rose::Diagnostic& diag : out->dump.diagnostics) {
        std::fprintf(stderr, "  %s\n", diag.ToString().c_str());
      }
      return false;
    }
    if (!rose::ReadFileBytes(dump_base + ".profile", &out->profile_text)) {
      std::fprintf(stderr, "%s: cannot open %s.profile\n", tool, dump_base.c_str());
      return false;
    }
    rose::Profile profile;
    return rose::ParseProfile(out->profile_text, &profile);
  }
  const rose::BugSpec* spec = rose::FindBug(bug_id);
  if (spec == nullptr) {
    std::fprintf(stderr, "%s: unknown bug id %s\n", tool, bug_id.c_str());
    return false;
  }
  rose::BugRunner runner(spec);
  const rose::Profile profile = runner.RunProfiling(seed);
  std::optional<rose::Trace> production = runner.ObtainProductionTrace(profile, seed + 17);
  if (!production.has_value()) {
    std::fprintf(stderr, "%s: %s never surfaced\n", tool, bug_id.c_str());
    return false;
  }
  out->dump.bytes = production->SerializeBinary();
  out->dump.trace = std::move(*production);
  out->profile_text = rose::SerializeProfile(profile);
  return true;
}

}  // namespace rose_examples

#endif  // EXAMPLES_OBTAIN_DUMP_H_
