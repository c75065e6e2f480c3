// Public facade: traces — records, streaming sources, persistence, wire
// framing.
//
// Stable entry points re-exported here:
//   * trace::IoRecord / make_record        (trace/io_record.hpp)
//   * trace::RecordSource and its family — VectorSource, MergedSource,
//     collector_source (a collector's records, RecordFilter applied,
//     (start, end)-ordered); every source is ordered, and OrderCheck
//     finds the first record that is not (trace/record_source.hpp)
//   * trace::MappedTraceSource / open_trace_source — the one .bpstrace
//     reader, zero-copy spans over the file mapping (trace/mapped_source.hpp);
//     spans returned by next_chunk() are valid until the next call
//   * trace::SpillWriter — the one .bpstrace writer (trace/spill_writer.hpp)
//   * trace::save_binary / load_binary / write_csv — whole-vector
//     conveniences over the writer and the reader (trace/serialize.hpp)
//   * trace::merge_traces / merge_trace_files / MergeOptions /
//     kDrainMerge                          (trace/merge.hpp)
//   * trace::encode_frame / FrameDecoder   (trace/frame.hpp)
//
// See docs/API.md for the stability policy. Internal headers under src/ may
// reorganize between releases; this header's contents do not.
#pragma once

#include "trace/frame.hpp"
#include "trace/io_record.hpp"
#include "trace/mapped_source.hpp"
#include "trace/merge.hpp"
#include "trace/record_source.hpp"
#include "trace/serialize.hpp"
#include "trace/spill_writer.hpp"
