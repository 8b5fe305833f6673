// The comparison statistics the paper's evaluation plots, shared by the
// benches: gain summaries (cost relative to Naive) and the cumulative
// frequency of performance gain (Figure 8(c), Figures 10-11).

#ifndef CAQP_BENCH_METRICS_H_
#define CAQP_BENCH_METRICS_H_

#include <string>
#include <utility>
#include <vector>

namespace caqp {

/// Ratios of baseline cost to algorithm cost, one per experiment; >1 means
/// the algorithm beat the baseline. Mirrors the paper's "performance gain".
struct GainStats {
  double mean = 0.0;
  double min = 0.0;    ///< worst case across experiments
  double max = 0.0;    ///< best case
  double median = 0.0;
  double variance = 0.0;  ///< population variance
  double p25 = 0.0;    ///< lower-quartile gain (linear interpolation)
  double p75 = 0.0;    ///< upper-quartile gain
  double p95 = 0.0;    ///< near-best-case gain
};

GainStats SummarizeGains(std::vector<double> gains);

/// q-th percentile (q in [0,100]) of `sorted` by linear interpolation
/// between order statistics. `sorted` must be ascending and non-empty.
double SortedPercentile(const std::vector<double>& sorted, double q);

/// Cumulative-frequency curve over gains: for each threshold x returns the
/// fraction of experiments with gain >= x (the Figure 8(c) / 10 / 11 plot).
/// `points` thresholds are spaced between min and max gain. Degenerate
/// inputs collapse: empty gains (or points < 2) give an empty curve, and
/// all-equal gains give the single point {gain, 1.0}.
std::vector<std::pair<double, double>> CumulativeGainCurve(
    std::vector<double> gains, int points = 20);

/// Formats a markdown-style table row; benches share this for output.
std::string FormatRow(const std::vector<std::string>& cells,
                      const std::vector<int>& widths);

}  // namespace caqp

#endif  // CAQP_BENCH_METRICS_H_
