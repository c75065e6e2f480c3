#include "core/experiment.hpp"

#include <algorithm>

#include "common/format.hpp"
#include "common/log.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"

namespace bpsio::core {

namespace {

// The one piece of sweep state shared between workers that is not a
// pre-assigned slot; GUARDED_BY makes clang verify the locking instead of a
// comment promising it.
class SweepProgress {
 public:
  explicit SweepProgress(std::size_t total) : total_(total) {}

  /// Count one finished run and report it; callback runs under the mutex so
  /// user code observes strictly increasing counts without its own locking.
  void tick(const std::function<void(std::size_t, std::size_t)>& callback) {
    MutexLock lock(mu_);
    ++done_;
    if (callback) callback(done_, total_);
  }

 private:
  Mutex mu_;
  std::size_t done_ BPSIO_GUARDED_BY(mu_) = 0;
  const std::size_t total_;
};

}  // namespace

metrics::MetricSample run_once(const RunSpec& spec, std::uint64_t seed) {
  Testbed testbed(spec.testbed(seed));
  // Paper discipline: cold caches at the start of every run.
  testbed.drop_caches();
  testbed.reset_counters();

  auto workload = spec.workload();
  workload::RunResult run = workload->run(testbed.env());

  const auto sample = metrics::measure_run(
      run.collector, testbed.bytes_moved(), run.exec_time,
      testbed.config().block_size);
  BPSIO_DEBUG("run '%s' seed=%llu: %s", spec.label.c_str(),
              static_cast<unsigned long long>(seed),
              sample.to_string().c_str());
  return sample;
}

SweepResult run_sweep(const std::vector<RunSpec>& specs,
                      const SweepOptions& options) {
  SweepResult result;
  ThreadPool pool(options.threads);

  // Every (seed, spec) pair is an independent simulation with its own
  // Testbed and RNG; each writes into its pre-assigned per_seed slot, so
  // pool width and completion order cannot change any downstream number.
  std::vector<std::vector<metrics::MetricSample>> per_seed(
      options.repeats, std::vector<metrics::MetricSample>(specs.size()));
  SweepProgress progress(options.repeats * specs.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(options.repeats * specs.size());
  for (std::uint32_t r = 0; r < options.repeats; ++r) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      tasks.push_back([&, r, i] {
        per_seed[r][i] = run_once(specs[i], options.base_seed + r);
        progress.tick(options.progress);
      });
    }
  }
  pool.run_all(std::move(tasks));

  result.samples = metrics::average_samples(per_seed);
  for (const auto& spec : specs) result.labels.push_back(spec.label);
  result.report = metrics::correlate(result.samples);

  if (per_seed.size() >= 2) {
    const auto row_reports = metrics::correlate_each(per_seed);
    for (metrics::MetricKind kind : metrics::kAllMetrics) {
      CcStability st;
      st.kind = kind;
      bool first = true;
      bool any_correct = false, any_wrong = false;
      for (const auto& row_report : row_reports) {
        const auto& mc = row_report.of(kind);
        if (first) {
          st.min_normalized_cc = st.max_normalized_cc = mc.normalized_cc;
          first = false;
        } else {
          st.min_normalized_cc = std::min(st.min_normalized_cc, mc.normalized_cc);
          st.max_normalized_cc = std::max(st.max_normalized_cc, mc.normalized_cc);
        }
        (mc.direction_correct ? any_correct : any_wrong) = true;
      }
      st.direction_stable = !(any_correct && any_wrong);
      result.stability.push_back(st);
    }
  }
  return result;
}

const CcStability* SweepResult::stability_of(metrics::MetricKind kind) const {
  for (const auto& st : stability) {
    if (st.kind == kind) return &st;
  }
  return nullptr;
}

std::string SweepResult::stability_table() const {
  if (stability.empty()) return {};
  TextTable table({"metric", "min nCC", "max nCC", "direction stable"});
  for (const auto& st : stability) {
    table.add_row({metrics::metric_name(st.kind),
                   fmt_double(st.min_normalized_cc, 3),
                   fmt_double(st.max_normalized_cc, 3),
                   st.direction_stable ? "yes" : "NO"});
  }
  return table.to_string();
}

std::string SweepResult::samples_table() const {
  TextTable table({"point", "exec(s)", "IOPS", "BW(MB/s)", "ARPT(ms)", "BPS",
                   "B(blocks)", "T(s)", "moved(MiB)"});
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    table.add_row({i < labels.size() ? labels[i] : std::to_string(i),
                   fmt_double(s.exec_time_s, 3), fmt_double(s.iops, 1),
                   fmt_double(s.bandwidth_bps / 1e6, 2),
                   fmt_double(s.arpt_s * 1e3, 3), fmt_double(s.bps, 1),
                   std::to_string(s.app_blocks), fmt_double(s.io_time_s, 3),
                   fmt_double(static_cast<double>(s.moved_bytes) / (1024.0 * 1024.0), 1)});
  }
  return table.to_string();
}

}  // namespace bpsio::core
