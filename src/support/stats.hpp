// Small statistics accumulators used by the benchmark harness: running
// mean/min/max plus exact percentiles over retained samples.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace scm {

// The fixed aggregate reported per metric in benchmark results.
struct Summary {
  double min = 0.0;
  double median = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
};

// Accumulates scalar samples; retains them for percentile queries.
class Samples {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  [[nodiscard]] double mean() const {
    if (samples_.empty()) return 0.0;
    double sum = 0.0;
    for (double s : samples_) sum += s;
    return sum / static_cast<double>(samples_.size());
  }

  [[nodiscard]] double min() const {
    return samples_.empty() ? 0.0
                            : *std::min_element(samples_.begin(), samples_.end());
  }

  [[nodiscard]] double max() const {
    return samples_.empty() ? 0.0
                            : *std::max_element(samples_.begin(), samples_.end());
  }

  // Linearly interpolated percentile over the retained samples
  // (NumPy's default "linear" method): q in [0, 100] maps to the
  // fractional rank q/100 * (n-1), and the result interpolates between
  // the two enclosing order statistics. Consequences the tests pin:
  // p0 == min, p100 == max, a single sample answers every quantile,
  // and two samples give the midpoint at p50 — NOT nearest-rank, whose
  // jumps would make p99 of a 3-rep benchmark equal its max.
  [[nodiscard]] double percentile(double q) {
    if (samples_.empty()) return 0.0;
    sort_once();
    const double rank = q / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  [[nodiscard]] double median() { return percentile(50.0); }

  [[nodiscard]] Summary summary() {
    return Summary{min(), median(), percentile(99.0), mean()};
  }

  void clear() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  void sort_once() {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  std::vector<double> samples_;
  bool sorted_ = false;
};

}  // namespace scm
