// Fixed-bin histogram with linear or logarithmic bin edges.
//
// Used by benches that report distributions over discrete buckets (e.g.
// Table 4's init-rwnd buckets) and for ASCII bar rendering in examples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tapo::stats {

class Histogram {
 public:
  /// `edges` must be strictly increasing; bin i covers [edges[i], edges[i+1]).
  /// Samples below the first edge or at/above the last are counted in
  /// underflow/overflow.
  explicit Histogram(std::vector<double> edges);

  static Histogram linear(double lo, double hi, std::size_t bins);
  static Histogram logarithmic(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);

  /// Pools another histogram built over the *same* edges into this one
  /// (per-shard partials from parallel runs). Throws std::invalid_argument
  /// when the bin edges differ.
  void merge(const Histogram& other);

  std::size_t bin_count() const { return counts_.size(); }
  std::uint64_t bin(std::size_t i) const { return counts_[i]; }
  double bin_hi(std::size_t i) const { return edges_[i + 1]; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }

  /// Fraction of all samples (incl. under/overflow) landing in bin i.
  double fraction(std::size_t i) const;

  /// Multi-line ASCII rendering with proportional bars.
  std::string render(std::size_t width = 50) const;

 private:
  std::vector<double> edges_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace tapo::stats
