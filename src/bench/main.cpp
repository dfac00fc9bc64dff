// scm_bench — the unified benchmark driver.
//
// Every scenario (one per former bench_* binary) registers itself into
// bench::registry(); this driver lists, filters, runs them under shared
// parameters, prints per-phase tables, and optionally writes the
// machine-readable scm-bench/v1 JSON report used to track the perf
// trajectory across PRs.
//
//   scm_bench --list
//   scm_bench --filter=universal --json=BENCH_results.json
//   scm_bench --threads=8 --ops=100000 --reps=5 --warmup=1
//   scm_bench --filter=tas.* --schedule=sticky:0.8
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

#include "bench/registry.hpp"
#include "bench/runner.hpp"
#include "support/table.hpp"

namespace {

using namespace scm;
using namespace scm::bench;

void print_usage() {
  std::printf(
      "usage: scm_bench [options]\n"
      "  --list             list registered scenarios and exit\n"
      "  --filter=PAT       run scenarios matching PAT (substring, or glob\n"
      "                     with * and ?; default: all)\n"
      "  --threads=N        thread / process count            (default 4)\n"
      "  --ops=N            per-thread ops / sweep budget     (default 1024)\n"
      "  --reps=N           measured repetitions              (default 3)\n"
      "  --warmup=N         discarded warmup repetitions      (default 1)\n"
      "  --schedule=POLICY  sim schedule: sequential | random | sticky:<s>\n"
      "                     | <seed> (random with that seed; default "
      "random)\n"
      "  --seed=N           base RNG seed                     (default 42)\n"
      "  --json=FILE        write the scm-bench/v1 report to FILE\n"
      "  --help             this text\n"
      "Numeric flags take a whole non-negative decimal integer; anything\n"
      "else (a sign, trailing characters, overflow) exits 2.\n");
}

bool parse_flag(const std::string& arg, const std::string& name,
                std::string* out) {
  const std::string prefix = name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

// Parses a numeric flag's value: the whole string must be a
// non-negative decimal integer that fits T. Otherwise prints why and
// returns false, so the caller exits 2 instead of running with
// whatever prefix atoi or strtoull would have salvaged.
template <class T>
bool parse_count(const std::string& arg, const std::string& value, T* out) {
  std::uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (value.empty() || ec != std::errc{} || ptr != end ||
      v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    std::fprintf(stderr, "invalid %s (want a non-negative integer)\n",
                 arg.c_str());
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchParams params;
  std::string filter;
  std::string json_path;
  bool list_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--list") {
      list_only = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (parse_flag(arg, "--filter", &value)) {
      filter = value;
    } else if (parse_flag(arg, "--threads", &value)) {
      if (!parse_count(arg, value, &params.threads)) return 2;
    } else if (parse_flag(arg, "--ops", &value)) {
      if (!parse_count(arg, value, &params.ops)) return 2;
    } else if (parse_flag(arg, "--reps", &value)) {
      if (!parse_count(arg, value, &params.reps)) return 2;
    } else if (parse_flag(arg, "--warmup", &value)) {
      if (!parse_count(arg, value, &params.warmup)) return 2;
    } else if (parse_flag(arg, "--schedule", &value)) {
      params.schedule = value;
    } else if (parse_flag(arg, "--seed", &value)) {
      if (!parse_count(arg, value, &params.seed)) return 2;
    } else if (parse_flag(arg, "--json", &value)) {
      json_path = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n\n", arg.c_str());
      print_usage();
      return 2;
    }
  }
  if (params.threads <= 0 || params.reps <= 0 || params.warmup < 0 ||
      params.ops == 0) {
    std::fprintf(stderr,
                 "invalid parameters: need threads>0, reps>0, warmup>=0, "
                 "ops>0\n");
    return 2;
  }
  if (!SchedulePolicy::try_parse(params.schedule, params.seed).has_value()) {
    std::fprintf(stderr,
                 "invalid --schedule=%s (want sequential | random | "
                 "sticky:<0..1> | <seed>)\n",
                 params.schedule.c_str());
    return 2;
  }
  const std::vector<ScenarioDef> defs = sorted_registry();
  if (list_only) {
    Table t({"scenario", "experiment", "backend", "description"});
    for (const ScenarioDef& def : defs) {
      t.row(def.name, def.experiment,
            def.backend == Backend::kSim ? "sim" : "native", def.description);
    }
    t.print(std::cout, "registered scenarios");
    return 0;
  }

  RunReport report;
  report.params = params;
  for (const ScenarioDef& def : defs) {
    if (!matches_filter(def.name, filter)) continue;
    const int reps = effective_reps(def, params);
    std::printf("running %-24s (%s, %d rep%s)...\n", def.name.c_str(),
                def.experiment.c_str(), reps, reps == 1 ? "" : "s");
    std::fflush(stdout);
    report.scenarios.push_back(run_scenario(def, params));
  }
  if (report.scenarios.empty()) {
    std::fprintf(stderr, "no scenario matches --filter=%s\n", filter.c_str());
    return 2;
  }

  std::printf("\n");
  print_report(report, std::cout);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 2;
    }
    write_json(report, out);
    std::printf("wrote %s (%zu scenarios)\n", json_path.c_str(),
                report.scenarios.size());
  }

  return report.all_claims_hold() ? 0 : 1;
}
