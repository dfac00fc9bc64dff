// scm_e2e — the end-to-end benchmark binary. One invocation runs one
// workload once and prints one JSON object as the last line of stdout:
//
//   scm_e2e --workload=NAME [--seed=N] [--seconds=S] [--trace-file=PATH]
//
// Without --trace-file the run is untraced: end-to-end metrics plus
// the per-layer counter metrics. With it, a shim sits at every layer
// boundary, the per-layer self times are reported, and the sampled
// spans are written to PATH as Chrome trace-event JSON. Before the
// workload runs, every output check is fed seeded bad values and each
// in-process stack is checked solo against its traced twin; a failed
// probe makes the run incorrect. perfbench/benchmark.py builds and
// drives this binary.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

// JSON string escaping for the few free-text fields (violations).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_report(const Report& rep, const std::vector<std::string>& probe_errs) {
  const bool correct =
      rep.failed == 0 && rep.violations.empty() && probe_errs.empty();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  std::printf("\"layers\":[");
  for (std::size_t i = 0; i < rep.layers.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", quoted(rep.layers[i]).c_str());
  }
  std::printf("],\"violations\":[");
  bool first = true;
  for (const auto* list : {&rep.violations, &probe_errs}) {
    for (const std::string& v : *list) {
      std::printf("%s%s", first ? "" : ",", quoted(v).c_str());
      first = false;
    }
  }
  std::printf("],\"metrics\":{");
  first = true;
  for (const auto& [name, value] : rep.metrics) {
    std::printf("%s%s:%.17g", first ? "" : ",", quoted(name).c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "scm_e2e: %s\nusage: scm_e2e --workload=counter-hot|"
               "kv-read-mostly|kv-write-heavy|ipc-counter [--seed=N] "
               "[--seconds=S] [--trace-file=PATH]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      char* end = nullptr;
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("--seed must be an integer");
    } else if (key == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(o.seconds > 0.0) ||
          o.seconds > 600.0) {
        usage("--seconds must be a number of seconds in (0, 600]");
      }
    } else if (key == "--trace-file") {
      if (val.empty()) usage("--trace-file needs a path");
      o.trace_path = val;
    } else {
      usage("unknown argument " + arg);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  void (*run)(const Options&, Report&) = nullptr;
  if (opts.workload == "counter-hot") {
    run = perfbench::run_counter_hot;
  } else if (opts.workload == "kv-read-mostly") {
    run = perfbench::run_kv_read_mostly;
  } else if (opts.workload == "kv-write-heavy") {
    run = perfbench::run_kv_write_heavy;
  } else if (opts.workload == "ipc-counter") {
    run = perfbench::run_ipc_counter;
  } else {
    usage("unknown workload '" + opts.workload + "'");
  }

  std::vector<std::string> probe_errs = perfbench::check_probes();
  for (auto errs : {perfbench::counter_hot_probes(), perfbench::kv_probes()}) {
    probe_errs.insert(probe_errs.end(), errs.begin(), errs.end());
  }

  Report rep;
  try {
    run(opts, rep);
  } catch (const std::exception& e) {
    rep.violation(std::string("exception: ") + e.what());
  }
  for (const std::string& v : rep.violations) {
    std::fprintf(stderr, "scm_e2e: violation: %s\n", v.c_str());
  }
  for (const std::string& v : probe_errs) {
    std::fprintf(stderr, "scm_e2e: probe failed: %s\n", v.c_str());
  }
  print_report(rep, probe_errs);
  return 0;
}
