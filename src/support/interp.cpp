#include "support/interp.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace swapp {

LogLogInterpolator::LogLogInterpolator(std::span<const double> x,
                                       std::span<const double> y) {
  SWAPP_REQUIRE(x.size() == y.size(), "interpolator size mismatch");
  SWAPP_REQUIRE(!x.empty(), "interpolator needs at least one point");
  lx_.reserve(x.size());
  ly_.reserve(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    SWAPP_REQUIRE(x[i] > 0.0 && y[i] > 0.0, "interpolator needs positive data");
    if (i > 0) {
      SWAPP_REQUIRE(x[i] > x[i - 1], "interpolator x must be increasing");
    }
    lx_.push_back(std::log(x[i]));
    ly_.push_back(std::log(y[i]));
  }
}

double LogLogInterpolator::operator()(double x) const {
  SWAPP_REQUIRE(!empty(), "lookup in empty interpolator");
  SWAPP_REQUIRE(x > 0.0, "interpolator lookup needs positive x");
  const double lx = std::log(x);
  if (lx_.size() == 1) return std::exp(ly_.front());

  // Locate the segment; clamp to the end segments for extrapolation.
  std::size_t hi = std::upper_bound(lx_.begin(), lx_.end(), lx) - lx_.begin();
  hi = std::clamp<std::size_t>(hi, 1, lx_.size() - 1);
  const std::size_t lo = hi - 1;
  const double t = (lx - lx_[lo]) / (lx_[hi] - lx_[lo]);
  return std::exp(ly_[lo] + t * (ly_[hi] - ly_[lo]));
}

void CoreSizeTable::insert(int cores, double bytes, double seconds) {
  SWAPP_REQUIRE(cores > 0, "core count must be positive");
  SWAPP_REQUIRE(bytes > 0.0, "message size must be positive");
  SWAPP_REQUIRE(seconds > 0.0, "sample time must be positive");
  rows_[cores][bytes] = seconds;
}

std::vector<int> CoreSizeTable::core_counts() const {
  std::vector<int> out;
  out.reserve(rows_.size());
  for (const auto& [cores, row] : rows_) out.push_back(cores);
  return out;
}

std::vector<CoreSizeTable::Sample> CoreSizeTable::samples() const {
  std::vector<Sample> out;
  for (const auto& [cores, row] : rows_) {
    for (const auto& [bytes, seconds] : row) {
      out.push_back(Sample{cores, bytes, seconds});
    }
  }
  return out;
}

double CoreSizeTable::lookup(int cores, double bytes) const {
  if (rows_.empty()) throw NotFound("lookup in empty CoreSizeTable");
  SWAPP_REQUIRE(cores > 0 && bytes > 0.0, "lookup needs positive arguments");

  const auto row_value = [&](const std::map<double, double>& row) {
    std::vector<double> xs;
    std::vector<double> ys;
    xs.reserve(row.size());
    ys.reserve(row.size());
    for (const auto& [b, t] : row) {
      xs.push_back(b);
      ys.push_back(t);
    }
    return LogLogInterpolator(xs, ys)(bytes);
  };

  if (rows_.size() == 1) return row_value(rows_.begin()->second);

  std::vector<double> core_xs;
  std::vector<double> core_ys;
  core_xs.reserve(rows_.size());
  core_ys.reserve(rows_.size());
  for (const auto& [c, row] : rows_) {
    core_xs.push_back(static_cast<double>(c));
    core_ys.push_back(row_value(row));
  }
  return LogLogInterpolator(core_xs, core_ys)(static_cast<double>(cores));
}

}  // namespace swapp
