// Benchmark regression gate: `scm_bench --compare old.json new.json`
// reads two scm-bench/v1 reports and fails (nonzero exit) when any
// scenario's median ns_per_op regressed beyond the threshold.
//
// Both reports must come from the same host: CI builds the parent
// commit next to the change on one runner, runs the same sweep with
// each binary, and compares the two, so a slowdown shows up as a
// failing step instead of a drift hidden by hardware differences.
//
// The JsonValue parser below is the minimal counterpart of
// json.hpp's writer — it exists so the repository can read its own
// reports without growing a dependency; it is not a general-purpose
// JSON library (no \uXXXX decoding beyond ASCII, numbers as double).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace scm::bench {

// A parsed JSON document node. Object members preserve insertion
// order (the writer's order), duplicate keys keep the first.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                               // kArray
  std::vector<std::pair<std::string, JsonValue>> members;     // kObject

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  // Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  // Convenience: the numeric value of a (possibly nested) member, or
  // nullopt anywhere along the path.
  [[nodiscard]] std::optional<double> number_at(
      std::initializer_list<const char*> path) const {
    const JsonValue* v = this;
    for (const char* key : path) {
      if (v == nullptr) return std::nullopt;
      v = v->find(key);
    }
    if (v == nullptr || !v->is_number()) return std::nullopt;
    return v->number;
  }
};

// Parses a complete JSON document. Returns nullopt (with *error set,
// when given) on malformed input or trailing garbage.
[[nodiscard]] std::optional<JsonValue> parse_json(
    const std::string& text, std::string* error = nullptr);

// The --compare entry point: loads both reports, matches scenarios by
// name, and compares scenario-level median ns_per_op. A scenario
// regresses when new > old * (1 + threshold); scenarios present in
// only one report never gate, but are listed in the table AND called
// out in explicit post-table warning lines naming each one-sided
// scenario — a rename or a dropped registration must not vanish from
// the gate silently. Returns the process exit code: 0 = no
// regression, 1 = regression, 2 = unreadable input.
int run_compare(const std::string& old_path, const std::string& new_path,
                double threshold, std::ostream& os);

}  // namespace scm::bench
