// Seeded record streams built from the interval shapes that break union
// sweeps: equal starts, equal ends, nesting, touching and zero-length
// intervals, gaps, and negative times. Shared by the streaming-consumer
// property test (test_metric_pipeline.cpp) and the bpsio_report end-to-end
// test (test_report_e2e.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "trace/io_record.hpp"

namespace bpsio {

/// `count` records spread over `pids`, in generation order (callers sort).
/// Times are multiples of `unit_ns` and start below zero; every record has
/// end >= start. About one record in eleven is a failed write.
inline std::vector<trace::IoRecord> shaped_records(
    std::uint64_t seed, std::size_t count,
    const std::vector<std::uint32_t>& pids, std::int64_t unit_ns = 1) {
  Rng rng(seed);
  const auto below = [&rng](std::int64_t n) {
    return static_cast<std::int64_t>(rng.next() %
                                     static_cast<std::uint64_t>(n));
  };
  std::vector<trace::IoRecord> out;
  out.reserve(count);
  std::int64_t t = -2000 + below(1000);  // clock in units
  std::int64_t prev_s = t;
  std::int64_t prev_e = t;
  for (std::size_t i = 0; i < count; ++i) {
    std::int64_t s = t;
    std::int64_t e = t + 1 + below(120);
    switch (i == 0 ? 7 : below(8)) {
      case 0:  // equal start
        s = prev_s;
        break;
      case 1:  // equal end
        e = std::max(prev_e, s);
        break;
      case 2:  // nested inside the previous interval
        s = prev_s + below(prev_e - prev_s + 1);
        e = s + below(prev_e - s + 1);
        break;
      case 3:  // touching the previous interval's end
        s = prev_e;
        e = s + 1 + below(60);
        break;
      case 4:  // zero length
        e = s;
        break;
      case 5:  // a gap before this one
        s = t + 150 + below(600);
        e = s + 1 + below(120);
        break;
      default:
        break;
    }
    const auto pid = pids[static_cast<std::size_t>(
        below(static_cast<std::int64_t>(pids.size())))];
    const auto blocks = static_cast<std::uint64_t>(1 + below(9));
    const bool failed = below(11) == 0;
    out.push_back(trace::make_record(
        pid, blocks, SimTime(s * unit_ns), SimTime(e * unit_ns),
        failed ? trace::IoOpKind::write : trace::IoOpKind::read,
        failed ? trace::kIoFailed : trace::kIoOk));
    prev_s = s;
    prev_e = e;
    t = std::max(t, s) + below(40);
  }
  return out;
}

}  // namespace bpsio
