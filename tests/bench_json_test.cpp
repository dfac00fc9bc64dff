// Validates the scm-bench/v1 JSON emitter and its counterpart reader
// (bench/compare.hpp): well-formedness (via a small recursive-descent
// checker), escaping, the stable report schema every BENCH_*.json
// must satisfy, a full parse round trip of the writer's own output,
// and the --compare regression gate's exit-code contract (0 ok,
// 1 regressed, 2 unreadable).
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/compare.hpp"
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
  // Per scenario.
  for (const char* key :
       {"\"scenario\":\"tas.steps\"", "\"experiment\":\"E1\"",
        "\"backend\":\"sim\"", "\"claim\"", "\"holds\":true",
        "\"ns_per_op\"", "\"steps_per_op\"", "\"rmws_per_op\"",
        "\"phases\""}) {
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

// ---------------------------------------------------------------------------
// The reader (bench/compare.hpp): parse_json + run_compare

// A native-backend two-scenario report with controllable medians —
// native, because run_compare deliberately skips sim scenarios
// (steps, not nanoseconds, are their time).
RunReport native_report(double cached_median, double async_median) {
  RunReport r;
  r.params.threads = 8;

  ScenarioReport cached;
  cached.scenario = "compose.cached";
  cached.experiment = "E15";
  cached.backend = "native";
  cached.reps = 3;
  cached.claim = "reads \"scale\";\nwrites don't";  // escaping round trip
  cached.claim_holds = true;
  cached.ns_per_op = Summary{cached_median * 0.9, cached_median,
                             cached_median * 1.4, cached_median * 1.05};
  PhaseReport phase;
  phase.phase = "f=0.95 t=8";
  phase.ops = 4096;
  phase.ns_per_op = cached.ns_per_op;
  phase.extra.emplace_back("hit_rate", 0.875);
  cached.phases.push_back(phase);
  r.scenarios.push_back(std::move(cached));

  ScenarioReport async;
  async.scenario = "compose.async";
  async.experiment = "E14";
  async.backend = "native";
  async.reps = 3;
  async.claim_holds = true;
  async.ns_per_op = Summary{async_median * 0.9, async_median,
                            async_median * 1.2, async_median};
  r.scenarios.push_back(std::move(async));
  return r;
}

std::string to_json(const RunReport& r) {
  std::ostringstream os;
  write_json(r, os);
  return os.str();
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(BenchJsonReader, ParserRoundTripsTheWriterOutput) {
  const std::string text = to_json(native_report(120.5, 340.25));
  std::string error;
  const auto doc = parse_json(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;

  const JsonValue* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "scm-bench/v1");
  EXPECT_EQ(doc->number_at({"params", "threads"}), 8.0);

  const JsonValue* scenarios = doc->find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_TRUE(scenarios->is_array());
  ASSERT_EQ(scenarios->items.size(), 2u);

  const JsonValue& cached = scenarios->items[0];
  EXPECT_EQ(cached.find("scenario")->string, "compose.cached");
  EXPECT_EQ(cached.number_at({"ns_per_op", "median"}), 120.5);
  // Escaped quotes and the newline survived the round trip (claim is
  // the nested {"text", "holds"} object).
  const JsonValue* claim = cached.find("claim");
  ASSERT_NE(claim, nullptr);
  ASSERT_NE(claim->find("text"), nullptr);
  EXPECT_EQ(claim->find("text")->string, "reads \"scale\";\nwrites don't");
  EXPECT_EQ(claim->find("holds")->kind, JsonValue::Kind::kBool);
  const JsonValue* phases = cached.find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->items.size(), 1u);
  EXPECT_EQ(phases->items[0].number_at({"extra", "hit_rate"}), 0.875);

  // Missing paths answer nullopt, not a crash; non-numbers too.
  EXPECT_FALSE(doc->number_at({"params", "no_such_key"}).has_value());
  EXPECT_FALSE(cached.number_at({"claim", "text"}).has_value());
}

TEST(BenchJsonReader, ParserRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1, 2", "{\"a\": }", "{\"a\": 1} trailing", "nul",
        "{\"s\": \"unterminated}", "{\"a\" 1}"}) {
    std::string error;
    EXPECT_FALSE(parse_json(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Duplicate keys keep the first value (the writer never emits them;
  // the reader just has to be deterministic about it).
  const auto dup = parse_json(R"({"a": 1, "a": 2})");
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->number_at({"a"}), 1.0);
}

TEST(BenchCompare, FlatReportsPassAndRegressionsGate) {
  const std::string old_path =
      write_temp("old.json", to_json(native_report(100.0, 200.0)));

  // Within threshold (+10% < 25%): exit 0.
  {
    const std::string new_path =
        write_temp("new_ok.json", to_json(native_report(110.0, 210.0)));
    std::ostringstream os;
    EXPECT_EQ(run_compare(old_path, new_path, 0.25, os), 0);
    EXPECT_NE(os.str().find("2 compared, 0 regressed"), std::string::npos)
        << os.str();
  }

  // One scenario beyond threshold (+50%): exit 1, named REGRESSED.
  {
    const std::string new_path =
        write_temp("new_bad.json", to_json(native_report(150.0, 210.0)));
    std::ostringstream os;
    EXPECT_EQ(run_compare(old_path, new_path, 0.25, os), 1);
    EXPECT_NE(os.str().find("REGRESSED"), std::string::npos) << os.str();
    EXPECT_NE(os.str().find("1 regressed"), std::string::npos) << os.str();
  }

  // A tighter threshold turns the passing pair into a failing one.
  {
    const std::string new_path =
        write_temp("new_tight.json", to_json(native_report(110.0, 210.0)));
    std::ostringstream os;
    EXPECT_EQ(run_compare(old_path, new_path, 0.05, os), 1);
  }
}

TEST(BenchCompare, UnreadableAndUnmatchedInputs) {
  const std::string good =
      write_temp("good.json", to_json(native_report(100.0, 200.0)));

  // Missing file and non-report JSON: exit 2.
  {
    std::ostringstream os;
    EXPECT_EQ(run_compare(testing::TempDir() + "nope.json", good, 0.25, os),
              2);
  }
  {
    const std::string not_report =
        write_temp("not_report.json", R"({"schema": "something-else"})");
    std::ostringstream os;
    EXPECT_EQ(run_compare(not_report, good, 0.25, os), 2);
    EXPECT_NE(os.str().find("not an scm-bench/v1 report"), std::string::npos);
  }

  // Scenarios present on only one side are reported but never gate.
  {
    RunReport only_cached = native_report(100.0, 200.0);
    only_cached.scenarios.pop_back();  // drop compose.async
    const std::string old_path =
        write_temp("only_cached.json", to_json(only_cached));
    const std::string new_path =
        write_temp("both.json", to_json(native_report(100.0, 9999.0)));
    std::ostringstream os;
    // compose.async is "new" — its enormous median cannot regress.
    EXPECT_EQ(run_compare(old_path, new_path, 0.25, os), 0);
    EXPECT_NE(os.str().find("new"), std::string::npos);

    // In the other direction it is "missing" — still not a gate.
    std::ostringstream os2;
    EXPECT_EQ(run_compare(new_path, old_path, 0.25, os2), 0);
    EXPECT_NE(os2.str().find("missing"), std::string::npos);
  }
}

TEST(BenchCompare, OneSidedScenariosAreNamedInExplicitWarnings) {
  // Beyond the table rows, every one-sided scenario is called out in a
  // post-table warning line BY NAME — a renamed or accidentally
  // unregistered scenario must not vanish from the gate silently.
  RunReport only_cached = native_report(100.0, 200.0);
  only_cached.scenarios.pop_back();  // drop compose.async
  const std::string cached_only =
      write_temp("warn_cached_only.json", to_json(only_cached));
  const std::string both =
      write_temp("warn_both.json", to_json(native_report(100.0, 200.0)));

  // NEW side has the extra scenario.
  {
    std::ostringstream os;
    EXPECT_EQ(run_compare(cached_only, both, 0.25, os), 0);
    const std::string out = os.str();
    EXPECT_NE(out.find("warning: 1 scenario(s) only in NEW report"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("compose.async"), std::string::npos) << out;
  }
  // OLD side has the extra scenario.
  {
    std::ostringstream os;
    EXPECT_EQ(run_compare(both, cached_only, 0.25, os), 0);
    const std::string out = os.str();
    EXPECT_NE(out.find("warning: 1 scenario(s) only in OLD report"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("compose.async"), std::string::npos) << out;
  }
  // Two-sided reports emit no warning at all.
  {
    std::ostringstream os;
    EXPECT_EQ(run_compare(both, both, 0.25, os), 0);
    EXPECT_EQ(os.str().find("warning:"), std::string::npos) << os.str();
  }
}

}  // namespace
}  // namespace scm::bench
