#include "src/harness/runner.h"

#include "src/workload/kv_client.h"

namespace rose {

Profile BugRunner::RunProfiling(uint64_t seed) const {
  SimWorld world(seed);
  Deployment deployment = spec_->deploy(world, seed);

  ProfilerConfig config;
  config.relevant_files = spec_->relevant_files;
  Profiler profiler(&world.kernel, spec_->binary, config);
  profiler.Attach();

  // A Rose-mode tracer runs alongside to learn the benign-fault baseline
  // (including NDs, which only the ingress tap sees).
  TracerConfig tracer_config;
  Tracer tracer(&world.kernel, &world.network, tracer_config);
  tracer.Attach();

  deployment.cluster->Start();
  world.loop.RunUntil(spec_->run_duration);

  profiler.AbsorbCleanTrace(tracer.Dump());
  Profile profile = profiler.BuildProfile();
  profiler.Detach();
  tracer.Detach();
  return profile;
}

RunOutcome BugRunner::RunOnce(const RunOptions& options) const {
  SimWorld world(options.seed);
  Deployment deployment = spec_->deploy(world, options.seed);

  TracerConfig tracer_config = options.tracer_config;
  if (options.profile != nullptr) {
    tracer_config.monitored_functions = options.profile->monitored_functions;
  }
  std::optional<Tracer> tracer;
  if (options.with_tracer) {
    tracer.emplace(&world.kernel, &world.network, tracer_config);
    tracer->Attach();
  }

  std::optional<Executor> executor;
  if (options.schedule != nullptr) {
    executor.emplace(&world.kernel, &world.network, *options.schedule);
    executor->Attach();
  }

  std::optional<Nemesis> nemesis;
  if (options.with_nemesis) {
    NemesisOptions nemesis_options = spec_->nemesis;
    nemesis_options.seed ^= options.seed * 0x2545f4914f6cdd1dULL;
    nemesis.emplace(deployment.cluster.get(), nemesis_options, deployment.leader_probe);
    nemesis->Start();
  }

  deployment.cluster->Start();

  // The monitoring loop: poll the bug oracle; once it fires, let the system
  // run a short grace period (so cascading events land in the window) and
  // halt — this is what triggers the tracer dump in production.
  SimTime bug_detected_at = -1;
  const SimTime grace = Seconds(4);
  std::function<void()> poll_oracle = [&] {
    if (bug_detected_at < 0 && deployment.oracle && deployment.oracle()) {
      bug_detected_at = world.loop.now();
    }
    if (bug_detected_at >= 0 && world.loop.now() >= bug_detected_at + grace) {
      world.loop.Halt();
      return;
    }
    world.loop.ScheduleAfter(Millis(500), poll_oracle);
  };
  world.loop.ScheduleAfter(Millis(500), poll_oracle);

  world.loop.RunUntil(options.duration);

  RunOutcome outcome;
  outcome.bug = deployment.oracle ? deployment.oracle() : false;
  if (tracer.has_value()) {
    if (options.want_trace) {
      outcome.trace = tracer->Dump();
    }
    outcome.tracer_stats = tracer->stats();
  }
  if (executor.has_value()) {
    outcome.feedback = executor->Feedback();
  }
  outcome.logs = deployment.cluster->AllLogText();
  outcome.virtual_duration = world.loop.now();
  for (NodeId client_id : deployment.clients) {
    auto* client = dynamic_cast<KvClient*>(deployment.cluster->node(client_id));
    if (client != nullptr) {
      outcome.client_ops_completed += client->ops_completed();
    }
  }
  return outcome;
}

std::optional<Trace> BugRunner::ObtainProductionTrace(const Profile& profile,
                                                      uint64_t base_seed,
                                                      int* attempts_used) const {
  for (int attempt = 0; attempt < spec_->max_production_attempts; attempt++) {
    RunOptions options;
    options.seed = base_seed + static_cast<uint64_t>(attempt) * 7919;
    options.duration = spec_->run_duration;
    options.profile = &profile;
    if (spec_->production_via_nemesis) {
      options.with_nemesis = true;
    } else if (spec_->manual_production.has_value()) {
      options.schedule = &*spec_->manual_production;
    }
    RunOutcome outcome = RunOnce(options);
    if (outcome.bug) {
      if (attempts_used != nullptr) {
        *attempts_used = attempt + 1;
      }
      return std::move(outcome.trace);
    }
  }
  if (attempts_used != nullptr) {
    *attempts_used = spec_->max_production_attempts;
  }
  return std::nullopt;
}

}  // namespace rose
