#include "ingest/store.hpp"

#include "common/format.hpp"

namespace bpsio::ingest {

std::uint64_t Lifetime::add(std::span<const trace::IoRecord> batch) {
  std::uint64_t valid = 0;
  for (const trace::IoRecord& r : batch) {
    if (!r.valid()) {
      ++invalid;
      continue;
    }
    ++valid;
    blocks += r.blocks;
    if (r.failed()) ++failed;
    if (r.sync()) ++sync;
  }
  records += valid;
  return valid;
}

Lifetime& Lifetime::operator+=(const Lifetime& other) {
  records += other.records;
  blocks += other.blocks;
  failed += other.failed;
  sync += other.sync;
  invalid += other.invalid;
  return *this;
}

void family(std::string& out, std::string_view name, std::string_view type,
            std::string_view help) {
  out.append("# HELP ").append(name).append(" ").append(help).append("\n");
  out.append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

void family(std::string& out, std::string_view name, std::string_view type,
            std::string_view help, std::uint64_t value) {
  family(out, name, type, help);
  out.append(name).append(" ").append(std::to_string(value)).append("\n");
}

void transport_families(std::string& out, const Transport& transport,
                        std::string_view peers, std::string_view peer) {
  const std::string prefix = "bpsio_" + std::string(peers);
  family(out, prefix + "_connected_total", "counter",
         std::string(peer) + " connections accepted.",
         transport.connected_total);
  family(out, prefix + "_active", "gauge",
         std::string(peer) + " connections currently open.", transport.active);
  family(out, "bpsio_frames_total", "counter",
         "Complete record frames decoded.", transport.frames_total);
  family(out, "bpsio_bad_frames_total", "counter",
         "Connections dropped on a malformed frame.",
         transport.bad_frames_total);
  if (!transport.forward.enabled) return;
  const agent::ForwardStats& fwd = transport.forward;
  family(out, "bpsio_forward_frames_total", "counter",
         "Tagged frames shipped to the upstream collector.",
         fwd.frames_forwarded);
  family(out, "bpsio_forward_records_total", "counter",
         "Records shipped upstream.", fwd.records_forwarded);
  family(out, "bpsio_forward_spilled_records_total", "counter",
         "Records diverted to the forward spill fallback.",
         fwd.records_spilled);
  family(out, "bpsio_forward_dropped_records_total", "counter",
         "Records dropped with no upstream and no spill dir.",
         fwd.records_dropped);
}

void window_settings(std::string& out, SimDuration window, Bytes block_size) {
  family(out, "bpsio_window_seconds", "gauge", "Sliding-window length.");
  out += "bpsio_window_seconds " + fmt_double(window.seconds(), 3) + "\n";
  family(out, "bpsio_block_size_bytes", "gauge",
         "Block unit used for bandwidth.",
         static_cast<std::uint64_t>(block_size));
}

void window_gauges(std::string& out, std::string_view tag,
                   const metrics::WindowFigures& w, SimDuration window,
                   Bytes block_size) {
  const auto gauge = [&out, tag](const char* name, const std::string& value) {
    out.append(name).append(tag).append(" ").append(value).append("\n");
  };
  gauge("bpsio_window_records", std::to_string(w.count));
  gauge("bpsio_window_blocks", std::to_string(w.blocks));
  gauge("bpsio_window_io_seconds",
        fmt_double(SimDuration(w.busy_ns).seconds(), 9));
  gauge("bpsio_window_bps", fmt_double(w.bps(), 3));
  gauge("bpsio_window_iops", fmt_double(w.iops(window), 3));
  gauge("bpsio_window_bw_bytes_per_second",
        fmt_double(w.bandwidth_bps(window, block_size), 3));
  gauge("bpsio_window_arpt_seconds", fmt_double(w.arpt_s(), 9));
}

void window_cells(std::string& out, const metrics::WindowFigures& w,
                  SimDuration window, Bytes block_size) {
  out += "," + std::to_string(w.count) + "," + std::to_string(w.blocks) +
         "," + fmt_double(SimDuration(w.busy_ns).seconds(), 9) + "," +
         fmt_double(w.bps(), 3) + "," + fmt_double(w.iops(window), 3) + "," +
         fmt_double(w.bandwidth_bps(window, block_size), 3) + "," +
         fmt_double(w.arpt_s(), 9) + "\n";
}

}  // namespace bpsio::ingest
