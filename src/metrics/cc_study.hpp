// Correlation study over a sweep of runs — the evaluation machinery behind
// Figures 4, 5, 6, 9, 11, and 12.
//
// Given one MetricSample per sweep point, compute each metric's Pearson CC
// against application execution time, then normalize the sign per the
// paper's convention (Section IV.B + Table 1): correct expected direction ->
// positive magnitude, wrong direction -> negative magnitude.
#pragma once

#include <string>
#include <vector>

#include "metrics/calculators.hpp"
#include "stats/correlation.hpp"

namespace bpsio::metrics {

struct MetricCorrelation {
  MetricKind kind;
  double cc = 0;             ///< raw Pearson CC vs execution time
  double normalized_cc = 0;  ///< sign-normalized per Table 1
  double spearman = 0;       ///< rank CC vs execution time (extra diagnostic)
  bool direction_correct = false;
  /// 95% Fisher-z confidence interval on the raw CC (point sample count).
  stats::CcInterval ci95{};
};

struct CorrelationReport {
  std::vector<MetricCorrelation> metrics;  ///< IOPS, BW, ARPT, BPS order
  std::size_t sample_count = 0;

  const MetricCorrelation& of(MetricKind kind) const;

  /// Fixed-width table matching the figures' bar-chart content.
  std::string to_string() const;
};

/// Run the study. Requires >= 2 samples (CC undefined otherwise).
CorrelationReport correlate(const std::vector<MetricSample>& samples);

/// One report per per-seed sample row (the seed-stability analysis).
std::vector<CorrelationReport> correlate_each(
    const std::vector<std::vector<MetricSample>>& per_seed);

/// Average several per-seed sample vectors pointwise (the paper runs each
/// experiment 5 times and uses the average). All vectors must be equal size.
std::vector<MetricSample> average_samples(
    const std::vector<std::vector<MetricSample>>& per_seed);

}  // namespace bpsio::metrics
