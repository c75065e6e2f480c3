// Incremental trace persistence with bounded memory.
//
// Section III.C: "All these records can be located on available media, such
// as memory or disk space, according to a configuration file defined by
// users." SpillWriter is the disk option: records append to an in-memory
// batch and spill to the trace file whenever the batch fills, so a
// long-running measurement keeps O(batch) memory instead of O(accesses).
// The on-disk format is the standard .bpstrace container (header rewritten
// with the final count on close), and SpillWriter is its only writer:
// save_binary() and every spool and drain append through one.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "trace/io_record.hpp"

namespace bpsio::trace {

class SpillWriter {
 public:
  /// `batch_records` bounds resident memory (32 bytes per record).
  explicit SpillWriter(std::string path, std::size_t batch_records = 4096);
  ~SpillWriter();

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// True when the output file opened successfully.
  bool ok() const { return ok_; }

  /// Append one record (spills automatically when the batch fills).
  void append(const IoRecord& record);

  /// Append a whole span in batch-sized gulps — one bulk copy per gulp
  /// instead of a push_back per record. Identical output to appending each
  /// record in turn.
  void append(std::span<const IoRecord> records);

  /// Flush the current batch to disk.
  Status flush();
  /// Flush, then rewrite the header with the records written so far and
  /// seek back to the end — a durability point for long-lived writers (the
  /// real-I/O capture library checkpoints after every buffer flush, so a
  /// traced process that dies without a clean close still leaves a readable
  /// trace up to its last checkpoint instead of a 0-count placeholder).
  Status checkpoint();
  /// Flush, rewrite the header with the final count, and close the file.
  /// Called by the destructor if not called explicitly.
  Status close();

  std::uint64_t records_written() const { return written_ + batch_.size(); }
  std::size_t resident_records() const { return batch_.size(); }

 private:
  std::string path_;
  std::size_t batch_limit_;
  std::vector<IoRecord> batch_;
  std::ofstream out_;
  std::uint64_t written_ = 0;
  bool ok_ = false;
  bool closed_ = false;
};

}  // namespace bpsio::trace
