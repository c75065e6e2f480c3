#include "metrics/cc_study.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "common/format.hpp"

namespace bpsio::metrics {

const MetricCorrelation& CorrelationReport::of(MetricKind kind) const {
  for (const auto& m : metrics) {
    if (m.kind == kind) return m;
  }
  // Previously a bare assert that compiled out in Release and fell through
  // to metrics.front() — returning a *different metric's* correlation as if
  // it were the requested one. Abort loudly instead.
  BPSIO_CHECK(false, "metric '%s' missing from report (%zu metrics present)",
              metric_name(kind).c_str(), metrics.size());
}

std::string CorrelationReport::to_string() const {
  TextTable table(
      {"metric", "CC", "normalized", "spearman", "95% CI", "direction"});
  for (const auto& m : metrics) {
    table.add_row({metric_name(m.kind), fmt_double(m.cc, 3),
                   fmt_double(m.normalized_cc, 3), fmt_double(m.spearman, 3),
                   "[" + fmt_double(m.ci95.lo, 2) + ", " +
                       fmt_double(m.ci95.hi, 2) + "]",
                   m.direction_correct ? "correct" : "WRONG"});
  }
  return "samples: " + std::to_string(sample_count) + "\n" + table.to_string();
}

CorrelationReport correlate(const std::vector<MetricSample>& samples) {
  CorrelationReport report;
  report.sample_count = samples.size();
  std::vector<double> exec;
  exec.reserve(samples.size());
  for (const auto& s : samples) exec.push_back(s.exec_time_s);

  for (MetricKind kind : kAllMetrics) {
    std::vector<double> values;
    values.reserve(samples.size());
    for (const auto& s : samples) values.push_back(metric_value(s, kind));
    MetricCorrelation mc;
    mc.kind = kind;
    mc.cc = stats::pearson(values, exec);
    mc.spearman = stats::spearman(values, exec);
    mc.normalized_cc = stats::normalize_cc(mc.cc, expected_direction(kind));
    mc.direction_correct = mc.normalized_cc >= 0.0;
    mc.ci95 = stats::cc_confidence_interval(mc.cc, samples.size(), 0.95);
    report.metrics.push_back(mc);
  }
  return report;
}

std::vector<CorrelationReport> correlate_each(
    const std::vector<std::vector<MetricSample>>& per_seed) {
  std::vector<CorrelationReport> reports;
  reports.reserve(per_seed.size());
  for (const auto& row : per_seed) reports.push_back(correlate(row));
  return reports;
}

std::vector<MetricSample> average_samples(
    const std::vector<std::vector<MetricSample>>& per_seed) {
  std::vector<MetricSample> out;
  if (per_seed.empty()) return out;
  const std::size_t points = per_seed.front().size();
  for (const auto& v : per_seed) {
    BPSIO_CHECK(v.size() == points,
                "sweeps must align across seeds (%zu points vs %zu)", v.size(),
                points);
  }
  out.resize(points);
  const double n = static_cast<double>(per_seed.size());
  for (std::size_t p = 0; p < points; ++p) {
    MetricSample& acc = out[p];
    for (const auto& v : per_seed) {
      const MetricSample& s = v[p];
      acc.exec_time_s += s.exec_time_s / n;
      acc.iops += s.iops / n;
      acc.bandwidth_bps += s.bandwidth_bps / n;
      acc.arpt_s += s.arpt_s / n;
      acc.bps += s.bps / n;
      acc.io_time_s += s.io_time_s / n;
      acc.peak_concurrency += s.peak_concurrency / n;
      // Integer ingredients: take the last seed's values scaled by count; a
      // plain mean would truncate, so accumulate and divide at the end.
      acc.access_count += s.access_count;
      acc.app_blocks += s.app_blocks;
      acc.app_bytes += s.app_bytes;
      acc.moved_bytes += s.moved_bytes;
    }
    acc.access_count /= per_seed.size();
    acc.app_blocks /= per_seed.size();
    acc.app_bytes /= per_seed.size();
    acc.moved_bytes /= per_seed.size();
  }
  return out;
}

}  // namespace bpsio::metrics
