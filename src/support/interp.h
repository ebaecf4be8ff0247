// Interpolation over benchmark parameter tables.
//
// The communication projection (paper §2.4 step 4) maps the application's MPI
// model — (routine, message size, call count) at a core count — onto the
// target-machine parameters P_Cj(m_i, S_k) measured by the IMB-style sweeps.
// Message-size and core-count grids are sampled at powers of two, so lookups
// between samples interpolate in log-log space, where MPI cost curves are
// near piecewise-linear.
#pragma once

#include <map>
#include <span>
#include <vector>

namespace swapp {

/// Monotone 1-D interpolator in log(x)/log(y) space with linear-tail
/// extrapolation beyond the sampled range.
class LogLogInterpolator {
 public:
  LogLogInterpolator() = default;

  /// Builds from parallel arrays; x must be strictly increasing and > 0,
  /// y must be > 0.
  LogLogInterpolator(std::span<const double> x, std::span<const double> y);

  bool empty() const noexcept { return lx_.empty(); }

  /// Interpolated (or extrapolated) value at `x` (> 0).
  double operator()(double x) const;

 private:
  std::vector<double> lx_;
  std::vector<double> ly_;
};

/// 2-D table keyed by (cores, message size) with log-log interpolation in
/// both dimensions: first in message size within each sampled core count,
/// then in core count across the per-row results.
class CoreSizeTable {
 public:
  /// Inserts a sample; duplicates overwrite.
  void insert(int cores, double bytes, double seconds);

  bool empty() const noexcept { return rows_.empty(); }
  std::vector<int> core_counts() const;

  /// One stored sample (for persistence and inspection).
  struct Sample {
    int cores;
    double bytes;
    double seconds;
  };
  /// All samples in deterministic (cores, bytes) order.
  std::vector<Sample> samples() const;

  /// Time for a message of `bytes` at `cores`.  Interpolates/extrapolates in
  /// both dimensions.  Throws NotFound on an empty table.
  double lookup(int cores, double bytes) const;

 private:
  // cores -> (bytes -> seconds); kept sorted for interpolation.
  std::map<int, std::map<double, double>> rows_;
};

}  // namespace swapp
