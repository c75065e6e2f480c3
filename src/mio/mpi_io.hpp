// MPI-IO-like middleware: noncontiguous (list) I/O with ROMIO-style data
// sieving, and two-phase collective I/O.
//
// Data sieving (paper refs [8][9]) turns a list of small noncontiguous
// regions into large contiguous reads of the covering extent — including
// the holes between regions. The application-required bytes (what BPS
// counts in B) are only the regions; the holes inflate FS-level moved
// bytes. That divergence is exactly what Figure 12 measures.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fs/file_api.hpp"
#include "mio/io_client.hpp"
#include "sim/sync.hpp"

namespace bpsio::mio {

/// One noncontiguous file region requested by the application.
struct Region {
  Bytes offset = 0;
  Bytes length = 0;
  Bytes end() const { return offset + length; }
  friend bool operator==(const Region&, const Region&) = default;
};

struct DataSievingConfig {
  bool enabled = true;
  /// ROMIO's ind_rd_buffer_size: the sieve buffer, read one chunk at a time.
  Bytes buffer_size = 4 * kMiB;
  /// Datatype processing / extraction bookkeeping per region.
  SimDuration per_region_overhead = SimDuration::from_us(1.5);
  /// Maximum hole size to sieve across; larger holes split the extent.
  /// 0 = sieve regardless of hole size (ROMIO default behaviour for reads).
  Bytes max_hole = 0;
};

struct CollectiveConfig {
  std::uint32_t aggregators = 0;  ///< 0 = every process aggregates (cb_nodes)
  Bytes cb_buffer_size = 16 * kMiB;
};

class CollectiveGroup;

class MpiIo {
 public:
  explicit MpiIo(IoClient& client, DataSievingConfig sieving = {});

  IoClient& client() { return client_; }
  const DataSievingConfig& sieving() const { return sieving_; }
  void set_sieving(DataSievingConfig cfg) { sieving_ = cfg; }

  /// Contiguous independent I/O — identical to the POSIX path.
  void read(fs::FileHandle h, Bytes offset, Bytes size, fs::IoDoneFn done);
  void write(fs::FileHandle h, Bytes offset, Bytes size, fs::IoDoneFn done);

  /// Independent noncontiguous read of `regions` (sorted by offset).
  /// With sieving enabled this reads the covering extent in buffer_size
  /// chunks and extracts the useful bytes; otherwise one backend read per
  /// region. Exactly ONE IoRecord is emitted, sized at the useful bytes —
  /// this is one application access no matter how the middleware serves it.
  void read_list(fs::FileHandle h, std::vector<Region> regions,
                 fs::IoDoneFn done);

  /// Independent noncontiguous write. Sieving writes are read-modify-write
  /// on each chunk that has holes; hole-free chunks are written directly.
  void write_list(fs::FileHandle h, std::vector<Region> regions,
                  fs::IoDoneFn done);

  /// Collective two-phase read: all group members must call; aggregators
  /// read contiguous partitions of the union extent, then data is
  /// redistributed. One IoRecord per process, flagged kIoCollective.
  void read_collective(CollectiveGroup& group, fs::FileHandle h,
                       std::vector<Region> regions, fs::IoDoneFn done);

  /// Collective two-phase write: data is exchanged to the aggregators
  /// (copy cost), which then write their file domains — the domains cover
  /// exactly the merged request space, so no read-modify-write is needed.
  void write_collective(CollectiveGroup& group, fs::FileHandle h,
                        std::vector<Region> regions, fs::IoDoneFn done);

 private:
  friend class CollectiveGroup;

  struct ListPlan;
  void run_sieved_chunks(std::shared_ptr<ListPlan> plan, std::size_t chunk_idx,
                         bool rmw);
  void run_region_by_region(std::shared_ptr<ListPlan> plan, std::size_t idx,
                            bool is_write);
  void finish_list(std::shared_ptr<ListPlan> plan);

  IoClient& client_;
  DataSievingConfig sieving_;
};

/// Rendezvous state for collective I/O over a fixed set of processes.
class CollectiveGroup {
 public:
  CollectiveGroup(sim::Simulator& sim, std::uint32_t parties,
                  CollectiveConfig config = {});

  std::uint32_t parties() const { return parties_; }
  const CollectiveConfig& config() const { return config_; }

 private:
  friend class MpiIo;
  struct Pending {
    MpiIo* io;
    fs::FileHandle handle;
    std::vector<Region> regions;
    Bytes useful = 0;
    SimTime start;
    trace::IoOpKind op = trace::IoOpKind::read;
    fs::IoDoneFn done;
  };

  /// One aggregator's I/O phase: its file domain in cb_buffer_size chunks,
  /// one after another.
  struct DomainStream {
    std::shared_ptr<std::vector<Pending>> round;
    std::size_t aggregator = 0;
    std::vector<Region> chunks;
    bool is_write = false;
    sim::JoinFn done;
  };

  void arrive(Pending pending);
  void run_round();
  void stream_domain(std::shared_ptr<DomainStream> stream, std::size_t i);

  sim::Simulator& sim_;
  std::uint32_t parties_;
  CollectiveConfig config_;
  std::vector<Pending> pending_;
};

/// Regions covering [start, start+count*(size+spacing)) with `size`-byte
/// regions separated by `spacing`-byte holes — the Hpio access pattern.
std::vector<Region> make_strided_regions(Bytes start, std::uint64_t count,
                                         Bytes size, Bytes spacing);

/// Total useful bytes of a region list.
Bytes regions_bytes(const std::vector<Region>& regions);

}  // namespace bpsio::mio
