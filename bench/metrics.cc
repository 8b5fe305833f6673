#include "metrics.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace caqp {

double SortedPercentile(const std::vector<double>& sorted, double q) {
  CAQP_CHECK(!sorted.empty());
  CAQP_CHECK(q >= 0.0 && q <= 100.0);
  if (sorted.size() == 1) return sorted[0];
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

GainStats SummarizeGains(std::vector<double> gains) {
  GainStats s;
  if (gains.empty()) return s;
  std::sort(gains.begin(), gains.end());
  s.min = gains.front();
  s.max = gains.back();
  s.median = gains[gains.size() / 2];
  double total = 0.0;
  for (double g : gains) total += g;
  s.mean = total / gains.size();
  double m2 = 0.0;
  for (double g : gains) m2 += (g - s.mean) * (g - s.mean);
  s.variance = m2 / gains.size();
  s.p25 = SortedPercentile(gains, 25.0);
  s.p75 = SortedPercentile(gains, 75.0);
  s.p95 = SortedPercentile(gains, 95.0);
  return s;
}

std::vector<std::pair<double, double>> CumulativeGainCurve(
    std::vector<double> gains, int points) {
  std::vector<std::pair<double, double>> curve;
  if (gains.empty() || points < 2) return curve;
  std::sort(gains.begin(), gains.end());
  const double lo = gains.front();
  const double hi = gains.back();
  if (lo == hi) {
    // All experiments saw the same gain: one point, full mass.
    curve.emplace_back(lo, 1.0);
    return curve;
  }
  for (int i = 0; i < points; ++i) {
    const double x = lo + (hi - lo) * i / (points - 1);
    // Fraction of experiments with gain >= x.
    const auto it = std::lower_bound(gains.begin(), gains.end(), x);
    const double frac =
        static_cast<double>(gains.end() - it) / static_cast<double>(gains.size());
    curve.emplace_back(x, frac);
  }
  return curve;
}

std::string FormatRow(const std::vector<std::string>& cells,
                      const std::vector<int>& widths) {
  CAQP_CHECK_EQ(cells.size(), widths.size());
  std::string out = "|";
  for (size_t i = 0; i < cells.size(); ++i) {
    std::string c = cells[i];
    const int pad = widths[i] - static_cast<int>(c.size());
    for (int p = 0; p < pad; ++p) c += ' ';
    out += " " + c + " |";
  }
  return out;
}

}  // namespace caqp
