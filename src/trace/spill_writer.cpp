#include "trace/spill_writer.hpp"

#include <algorithm>

#include "trace/serialize.hpp"

namespace bpsio::trace {

SpillWriter::SpillWriter(std::string path, std::size_t batch_records)
    : path_(std::move(path)), batch_limit_(batch_records ? batch_records : 1) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  ok_ = static_cast<bool>(out_);
  if (ok_) {
    // Placeholder header; the final count lands in close().
    TraceHeader header;
    out_.write(reinterpret_cast<const char*>(&header), sizeof header);
    ok_ = static_cast<bool>(out_);
  }
  batch_.reserve(batch_limit_);
}

SpillWriter::~SpillWriter() { (void)close(); }

void SpillWriter::append(const IoRecord& record) {
  batch_.push_back(record);
  if (batch_.size() >= batch_limit_) (void)flush();
}

void SpillWriter::append(std::span<const IoRecord> records) {
  while (!records.empty()) {
    // A failed flush leaves the batch full (same as the per-record path);
    // take everything then so the loop still terminates.
    const std::size_t take =
        batch_.size() < batch_limit_
            ? std::min(batch_limit_ - batch_.size(), records.size())
            : records.size();
    batch_.insert(batch_.end(), records.begin(),
                  records.begin() + static_cast<std::ptrdiff_t>(take));
    records = records.subspan(take);
    if (batch_.size() >= batch_limit_) (void)flush();
  }
}

Status SpillWriter::flush() {
  if (!ok_) return Status{Errc::io_error, "writer not open"};
  if (batch_.empty()) return {};
  out_.write(reinterpret_cast<const char*>(batch_.data()),
             static_cast<std::streamsize>(batch_.size() * sizeof(IoRecord)));
  if (!out_) {
    ok_ = false;
    return Status{Errc::io_error, "spill write failed"};
  }
  written_ += batch_.size();
  batch_.clear();
  return {};
}

Status SpillWriter::checkpoint() {
  if (closed_) return Status{Errc::io_error, "writer already closed"};
  if (const Status flushed = flush(); !flushed.ok()) return flushed;
  TraceHeader header;
  header.record_count = written_;
  const std::ofstream::pos_type end_pos = out_.tellp();
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(&header), sizeof header);
  out_.seekp(end_pos);
  if (!out_) {
    ok_ = false;
    return Status{Errc::io_error, "header checkpoint failed"};
  }
  return {};
}

Status SpillWriter::close() {
  if (closed_) return {};
  closed_ = true;
  if (!ok_) return Status{Errc::io_error, "writer not open"};
  if (const Status flushed = flush(); !flushed.ok()) return flushed;
  // Rewrite the header with the final record count.
  TraceHeader header;
  header.record_count = written_;
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(&header), sizeof header);
  out_.close();
  if (!out_) return Status{Errc::io_error, "header rewrite failed"};
  return {};
}

}  // namespace bpsio::trace
