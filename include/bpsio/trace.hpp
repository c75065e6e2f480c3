// Public facade: traces — records, streaming sources, persistence, wire
// framing.
//
// Stable entry points re-exported here:
//   * trace::IoRecord / make_record        (trace/io_record.hpp)
//   * trace::RecordSource and its family — VectorSource, SpilledTraceSource,
//     MergedSource, FilteredSource, collector_source/collector_view
//                                          (trace/record_source.hpp)
//   * trace::MappedTraceSource / open_trace_source — mmap-backed zero-copy
//     file source and the mmap-preferring factory (trace/mapped_source.hpp);
//     spans returned by next_chunk() are valid until the next call
//   * trace::SpillWriter                   (trace/spill_writer.hpp)
//   * trace::read_binary / write_binary    (trace/serialize.hpp)
//   * trace::merge_traces / MergeOptions   (trace/merge.hpp)
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
