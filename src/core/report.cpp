#include "core/report.hpp"

#include "common/format.hpp"

namespace bpsio::core {

std::string to_markdown(const SweepResult& sweep,
                        const ReportOptions& options) {
  std::string out;
  if (!options.title.empty()) {
    out += "### " + options.title + "\n\n";
  }
  if (!options.paper_expectation.empty()) {
    out += "*Paper expectation:* " + options.paper_expectation + "\n\n";
  }

  if (options.include_samples) {
    TextTable samples(
        {"point", "exec (s)", "IOPS", "BW (MB/s)", "ARPT (ms)", "BPS"});
    for (std::size_t i = 0; i < sweep.samples.size(); ++i) {
      const auto& s = sweep.samples[i];
      samples.add_row({i < sweep.labels.size() ? sweep.labels[i]
                                               : std::to_string(i),
                       fmt_double(s.exec_time_s, 3), fmt_double(s.iops, 1),
                       fmt_double(s.bandwidth_bps / 1e6, 2),
                       fmt_double(s.arpt_s * 1e3, 3), fmt_double(s.bps, 1)});
    }
    out += samples.to_markdown() + "\n";
  }

  TextTable verdicts(options.include_confidence
                         ? std::vector<std::string>{"metric", "CC",
                                                    "normalized", "95% CI",
                                                    "direction"}
                         : std::vector<std::string>{"metric", "CC",
                                                    "normalized",
                                                    "direction"});
  for (const auto& m : sweep.report.metrics) {
    const std::string verdict =
        m.direction_correct ? "correct" : "**WRONG**";
    if (options.include_confidence) {
      verdicts.add_row({metrics::metric_name(m.kind), fmt_double(m.cc, 3),
                        fmt_double(m.normalized_cc, 3),
                        "[" + fmt_double(m.ci95.lo, 2) + ", " +
                            fmt_double(m.ci95.hi, 2) + "]",
                        verdict});
    } else {
      verdicts.add_row({metrics::metric_name(m.kind), fmt_double(m.cc, 3),
                        fmt_double(m.normalized_cc, 3), verdict});
    }
  }
  return out + verdicts.to_markdown();
}

}  // namespace bpsio::core
