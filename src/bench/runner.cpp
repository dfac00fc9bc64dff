#include "bench/runner.hpp"

#include <algorithm>
#include <map>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "bench/json.hpp"
#include "support/parking.hpp"
#include "support/table.hpp"

namespace scm::bench {
namespace {

// Number of CPUs the process is ALLOWED to run on (the affinity mask
// cpuset-restricted containers and taskset impose), as opposed to the
// hardware_concurrency the machine advertises: a t=8 sweep recorded on
// a 2-CPU-mask runner is interpretable only with both numbers. 0 when
// the mask cannot be read (non-Linux hosts).
int affinity_cpus() {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  return CPU_COUNT(&allowed);
#else
  return 0;
#endif
}

// Git SHA the binary was configured from (injected by CMake); reports
// downloaded from CI artifacts carry their own provenance.
const char* build_git_sha() {
#if defined(SCM_GIT_SHA)
  return SCM_GIT_SHA;
#else
  return "unknown";
#endif
}

struct PhaseAccumulator {
  std::uint64_t ops = 0;
  Samples ns_per_op;
  Samples steps_per_op;
  Samples rmws_per_op;
  std::map<std::string, Samples> extra;
  std::size_t first_seen = 0;  // keeps the scenario's phase order stable
};

void write_summary(JsonWriter& w, const std::string& key, const Summary& s) {
  w.key(key).begin_object();
  w.kv("min", s.min).kv("median", s.median).kv("p99", s.p99).kv("mean", s.mean);
  w.end_object();
}

}  // namespace

ScenarioReport run_scenario(const ScenarioDef& def, const BenchParams& params) {
  // Simulator-backed scenarios are deterministic functions of the
  // parameters: every repetition would recompute a byte-identical
  // result, so they run exactly once and need no warmup. Warmup and
  // repetition only pay off where wall-clock noise exists (native).
  const bool deterministic = def.backend == Backend::kSim;
  const int warmup = deterministic ? 0 : params.warmup;
  const int reps = effective_reps(def, params);

  ScenarioReport report;
  report.scenario = def.name;
  report.experiment = def.experiment;
  report.backend = deterministic ? "sim" : "native";
  report.reps = reps;
  report.claim_holds = true;

  for (int w = 0; w < warmup; ++w) {
    (void)def.run(params);
  }

  std::map<std::string, PhaseAccumulator> phases;
  std::size_t phase_counter = 0;
  Samples total_ns, total_steps, total_rmws;
  for (int rep = 0; rep < reps; ++rep) {
    const ScenarioResult result = def.run(params);
    report.claim = result.claim;
    report.claim_holds = report.claim_holds && result.claim_holds;

    std::uint64_t rep_ops = 0, rep_steps = 0, rep_rmws = 0;
    double rep_seconds = 0.0;
    for (const PhaseMetrics& pm : result.phases) {
      auto [it, inserted] = phases.try_emplace(pm.phase);
      PhaseAccumulator& acc = it->second;
      if (inserted) acc.first_seen = phase_counter++;
      acc.ops = pm.ops;
      acc.ns_per_op.add(pm.ns_per_op());
      acc.steps_per_op.add(pm.steps_per_op());
      acc.rmws_per_op.add(pm.rmws_per_op());
      for (const auto& [k, v] : pm.extra) acc.extra[k].add(v);
      rep_ops += pm.ops;
      rep_steps += pm.steps;
      rep_rmws += pm.rmws;
      rep_seconds += pm.seconds;
    }
    const double denom = rep_ops == 0 ? 1.0 : static_cast<double>(rep_ops);
    total_ns.add(rep_seconds * 1e9 / denom);
    total_steps.add(static_cast<double>(rep_steps) / denom);
    total_rmws.add(static_cast<double>(rep_rmws) / denom);
  }

  report.ns_per_op = total_ns.summary();
  report.steps_per_op = total_steps.summary();
  report.rmws_per_op = total_rmws.summary();

  std::vector<std::pair<std::string, PhaseAccumulator>> ordered(
      std::make_move_iterator(phases.begin()),
      std::make_move_iterator(phases.end()));
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return a.second.first_seen < b.second.first_seen;
  });
  for (auto& [name, acc] : ordered) {
    PhaseReport pr;
    pr.phase = name;
    pr.ops = acc.ops;
    pr.ns_per_op = acc.ns_per_op.summary();
    pr.steps_per_op = acc.steps_per_op.summary();
    pr.rmws_per_op = acc.rmws_per_op.summary();
    for (auto& [k, samples] : acc.extra) {
      pr.extra.emplace_back(k, samples.mean());
    }
    report.phases.push_back(std::move(pr));
  }
  return report;
}

void write_json(const RunReport& report, std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "scm-bench/v1");

  w.key("params").begin_object();
  w.kv("threads", report.params.threads)
      .kv("ops", report.params.ops)
      .kv("reps", report.params.reps)
      .kv("warmup", report.params.warmup)
      .kv("schedule", report.params.schedule)
      .kv("seed", report.params.seed)
      // Execution environment, so downloaded artifacts stay
      // interpretable: an 8-thread sweep means something different on
      // 2 allowed CPUs than on 16. Additive keys — scm-bench/v1
      // consumers that key on the original fields are unaffected.
      .kv("hardware_concurrency",
          static_cast<int>(std::thread::hardware_concurrency()))
      .kv("affinity_cpus", affinity_cpus())
      .kv("git_sha", build_git_sha())
      // Parking provenance — additive key again: which rung-3 wait
      // implementation the binary was built with (futex vs the forced
      // yield fallback), since the slow-path numbers differ.
      .kv("wait_mode", wait_mode_name(kDefaultWaitMode));
  w.end_object();

  w.key("scenarios").begin_array();
  for (const ScenarioReport& s : report.scenarios) {
    w.begin_object();
    w.kv("scenario", s.scenario)
        .kv("experiment", s.experiment)
        .kv("backend", s.backend)
        .kv("reps", s.reps);
    w.key("claim").begin_object();
    w.kv("text", s.claim).kv("holds", s.claim_holds);
    w.end_object();
    write_summary(w, "ns_per_op", s.ns_per_op);
    write_summary(w, "steps_per_op", s.steps_per_op);
    write_summary(w, "rmws_per_op", s.rmws_per_op);
    w.key("phases").begin_array();
    for (const PhaseReport& p : s.phases) {
      w.begin_object();
      w.kv("phase", p.phase).kv("ops", p.ops);
      write_summary(w, "ns_per_op", p.ns_per_op);
      write_summary(w, "steps_per_op", p.steps_per_op);
      write_summary(w, "rmws_per_op", p.rmws_per_op);
      w.key("extra").begin_object();
      for (const auto& [k, v] : p.extra) w.kv(k, v);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void print_report(const RunReport& report, std::ostream& os) {
  for (const ScenarioReport& s : report.scenarios) {
    Table t({"phase", "ops", "ns/op (med)", "steps/op (med)", "rmws/op (med)"});
    for (const PhaseReport& p : s.phases) {
      t.row(p.phase, p.ops, p.ns_per_op.median, p.steps_per_op.median,
            p.rmws_per_op.median);
    }
    t.print(os, s.scenario + " (" + s.experiment + ", " + s.backend + ")");
    os << "claim: " << s.claim << " -> "
       << (s.claim_holds ? "HOLDS" : "VIOLATED") << "\n\n";
  }
}

}  // namespace scm::bench
