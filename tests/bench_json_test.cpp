// Validates the scm-bench/v1 JSON emitter: well-formedness (via a
// small recursive-descent checker), escaping, and the stable report
// schema every BENCH_*.json must satisfy.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "bench/json.hpp"
#include "bench/runner.hpp"

namespace scm::bench {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness checker (no DOM, just grammar).

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const std::string& lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

RunReport sample_report() {
  RunReport report;
  report.params = BenchParams{};
  ScenarioReport s;
  s.scenario = "tas.steps";
  s.experiment = "E1";
  s.backend = "sim";
  s.reps = 3;
  s.claim = "solo steps constant \"quoted\" and\nnewlined";
  s.claim_holds = true;
  s.ns_per_op = Summary{1.0, 2.0, 3.0, 2.5};
  s.steps_per_op = Summary{10.0, 11.0, 12.0, 11.0};
  s.rmws_per_op = Summary{0.0, 0.0, 1.0, 0.25};
  PhaseReport p;
  p.phase = "contended n=4";
  p.ops = 16;
  p.extra.emplace_back("solo_steps", 9.0);
  // Parking telemetry extras as the native combining scenarios emit
  // them — the schema test below pins their spelling.
  p.extra.emplace_back("parks", 3.0);
  p.extra.emplace_back("wakes", 2.0);
  p.extra.emplace_back("spurious_wakes", 0.0);
  p.extra.emplace_back("futex_syscalls", 5.0);
  s.phases.push_back(p);
  report.scenarios.push_back(std::move(s));
  return report;
}

TEST(JsonWriter, EscapesSpecialCharacters) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("k", std::string("a\"b\\c\nd\te") + '\x01');
  w.end_object();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(os.str(), "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null,1.5]");
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(JsonWriter, NestedStructuresBalance) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("a").begin_array();
  w.begin_object();
  w.kv("x", 1).kv("y", false);
  w.end_object();
  w.value(std::uint64_t{7});
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(os.str(), "{\"a\":[{\"x\":1,\"y\":false},7]}");
}

TEST(ReportSchema, EmitsWellFormedJson) {
  std::ostringstream os;
  write_json(sample_report(), os);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

TEST(ReportSchema, ContainsRequiredKeys) {
  std::ostringstream os;
  write_json(sample_report(), os);
  const std::string json = os.str();

  // Top level. The environment keys (hardware_concurrency,
  // affinity_cpus, git_sha) are additive to scm-bench/v1 — consumers
  // keyed on the original fields are unaffected, and downloaded sweep
  // artifacts become interpretable (an 8-thread sweep on a 2-CPU
  // affinity mask is a different experiment than on 16).
  EXPECT_NE(json.find("\"schema\":\"scm-bench/v1\""), std::string::npos);
  for (const char* key :
       {"\"params\"", "\"threads\"", "\"ops\"", "\"reps\"", "\"warmup\"",
        "\"schedule\"", "\"seed\"", "\"scenarios\"",
        "\"hardware_concurrency\"", "\"affinity_cpus\"", "\"git_sha\"",
        // Parking provenance — additive again: the compiled-in
        // rung-3 wait mode.
        "\"wait_mode\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Per scenario. The claim is a nested {"text", "holds"} object: its
  // text escaped verbatim, `holds` a JSON bool (not a string or a
  // number), and each summary is a {min, median, p99, mean} object.
  for (const char* key :
       {"\"scenario\":\"tas.steps\"", "\"experiment\":\"E1\"",
        "\"backend\":\"sim\"",
        "\"claim\":{\"text\":\"solo steps constant \\\"quoted\\\" and"
        "\\nnewlined\",\"holds\":true}",
        "\"ns_per_op\":{\"min\":1,\"median\":2,\"p99\":3,\"mean\":2.5}",
        "\"steps_per_op\"", "\"rmws_per_op\"", "\"phases\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Per phase and per summary. The parking telemetry extras flow
  // through the generic extra map — this pins their key spelling so
  // downstream dashboards can rely on it.
  for (const char* key :
       {"\"phase\":\"contended n=4\"", "\"min\"", "\"median\"", "\"p99\"",
        "\"mean\"", "\"extra\"", "\"solo_steps\":9", "\"parks\":3",
        "\"wakes\":2", "\"spurious_wakes\":0", "\"futex_syscalls\":5"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ReportSchema, AggregatesAcrossRepetitions) {
  // A deterministic fake scenario: rep k reports k+1 ns/op so the
  // aggregation is exactly checkable.
  int rep = 0;
  ScenarioDef def;
  def.name = "fake";
  def.experiment = "-";
  def.backend = Backend::kNative;
  def.run = [&rep](const BenchParams&) {
    ScenarioResult r;
    PhaseMetrics pm;
    pm.phase = "only";
    pm.ops = 1000;
    pm.seconds = 1e-6 * static_cast<double>(++rep);  // 1, 2, 3 ns/op
    pm.steps = 5000;
    pm.rmws = 1000;
    r.phases.push_back(pm);
    r.claim = "fake";
    r.claim_holds = true;
    return r;
  };

  BenchParams params;
  params.reps = 3;
  params.warmup = 0;
  const ScenarioReport report = run_scenario(def, params);
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(report.ns_per_op.min, 1.0);
  EXPECT_DOUBLE_EQ(report.ns_per_op.median, 2.0);
  EXPECT_DOUBLE_EQ(report.ns_per_op.mean, 2.0);
  EXPECT_DOUBLE_EQ(report.steps_per_op.median, 5.0);
  EXPECT_DOUBLE_EQ(report.rmws_per_op.median, 1.0);
  EXPECT_TRUE(report.claim_holds);
}

}  // namespace
}  // namespace scm::bench
