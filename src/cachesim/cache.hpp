// Trace-driven set-associative cache simulator. This is the detailed
// counterpart of the analytical sim::CacheModel: it executes address
// traces against a real set/way/LRU structure, and the validation tests
// check that the analytical model's serving-level decisions agree with
// simulated miss rates on synthetic kernels.
//
// The hot entry point is run-based: Hierarchy::access_run replays one
// TraceCursor run with one tag check per L1 line it touches
// (Cache::access_line). Per-set state is structure-of-arrays (separate
// tag / stamp / dirty arrays with an invalid-tag sentinel), so the way
// scan is a branch-light linear probe over a contiguous tag array and
// set/tag math is shift-and-mask, not division. The coalescing is
// exact — the per-access `access` path and the run path produce
// bit-identical CacheStats — because a run's same-line accesses are
// consecutive in the global access order, so nothing can intervene and
// evict the line between them (see docs/CACHESIM.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sgp::cachesim {

using Addr = std::uint64_t;

enum class ReplacementPolicy { LRU, FIFO };

struct CacheConfig {
  std::string name = "L1";
  std::size_t size_bytes = 32 * 1024;
  std::size_t line_bytes = 64;
  std::size_t ways = 8;
  ReplacementPolicy policy = ReplacementPolicy::LRU;
  bool write_allocate = true;

  std::size_t num_sets() const { return size_bytes / (line_bytes * ways); }

  /// Throws std::invalid_argument on non-power-of-two geometry or
  /// inconsistent sizes.
  void validate() const;
};

struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  /// Writebacks arriving from the level above (see write_back_line).
  /// Kept separate from the demand counters so miss rates measure
  /// demand traffic only; a wb_miss at the last level is DRAM write
  /// traffic (dram_bytes()).
  std::uint64_t wb_hits = 0;
  std::uint64_t wb_misses = 0;

  /// Demand accesses (writeback absorption excluded).
  std::uint64_t accesses() const {
    return read_hits + read_misses + write_hits + write_misses;
  }
  std::uint64_t misses() const { return read_misses + write_misses; }
  /// Lines moved between this level and the one below: demand fills,
  /// dirty evictions and writebacks passing through unabsorbed. At the
  /// last level that is the DRAM traffic (Hierarchy::dram_bytes()).
  std::uint64_t lines_below() const {
    return misses() + writebacks + wb_misses;
  }
  double miss_rate() const {
    const auto a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(misses()) / a;
  }

  bool operator==(const CacheStats&) const = default;

  CacheStats& operator+=(const CacheStats& o) {
    read_hits += o.read_hits;
    read_misses += o.read_misses;
    write_hits += o.write_hits;
    write_misses += o.write_misses;
    evictions += o.evictions;
    writebacks += o.writebacks;
    wb_hits += o.wb_hits;
    wb_misses += o.wb_misses;
    return *this;
  }
  CacheStats& operator-=(const CacheStats& o) {
    read_hits -= o.read_hits;
    read_misses -= o.read_misses;
    write_hits -= o.write_hits;
    write_misses -= o.write_misses;
    evictions -= o.evictions;
    writebacks -= o.writebacks;
    wb_hits -= o.wb_hits;
    wb_misses -= o.wb_misses;
    return *this;
  }
  /// Every field multiplied by `k` (steady-state rep extrapolation).
  CacheStats scaled(std::uint64_t k) const {
    return CacheStats{read_hits * k,  read_misses * k,  write_hits * k,
                      write_misses * k, evictions * k,  writebacks * k,
                      wb_hits * k,    wb_misses * k};
  }
};

/// `count` accesses starting at `base`, advancing `step_bytes` per
/// access (0 = the same address repeatedly). A run never mixes reads
/// and writes, and its accesses are consecutive in the trace order.
struct AccessRun {
  Addr base = 0;
  std::uint64_t step_bytes = 0;
  std::uint64_t count = 1;
  bool is_write = false;

  bool operator==(const AccessRun&) const = default;
};

/// One level of cache. Accesses report hit/miss; misses are meant to be
/// forwarded to the next level by the caller (see Hierarchy).
class Cache {
 public:
  /// Outcome of access_line: whether the (first) access hit, and
  /// whether installing on a miss evicted a dirty victim the caller must
  /// write back to the next level.
  struct LineOutcome {
    bool hit = false;
    bool writeback = false;
    Addr victim_addr = 0;  ///< line-aligned address of the dirty victim
  };

  explicit Cache(CacheConfig config);
  Cache(Cache&&) noexcept = default;
  ~Cache();

  const CacheConfig& config() const noexcept { return config_; }
  const CacheStats& stats() const noexcept { return stats_; }

  /// True on hit. On miss the line is installed (allocate-on-miss; for
  /// writes only when write_allocate).
  bool access(Addr addr, bool is_write);

  /// `n` consecutive accesses that all fall into the line holding
  /// `addr`, performed as one tag check. Exactly equivalent to calling
  /// `access` n times on same-line addresses back to back: on a hit all
  /// n count as hits; on an allocating miss the first counts as the
  /// miss and the remaining n-1 hit the just-installed line; a
  /// write-around miss counts all n as write misses. LRU stamps end at
  /// the clock after the last access, FIFO stamps keep the fill time.
  LineOutcome access_line(Addr addr, bool is_write, std::uint64_t n = 1);

  /// Absorbs a writeback arriving from the level above: on hit the
  /// resident line turns dirty (counted as a wb_hit) and true is
  /// returned; on miss a wb_miss is counted, nothing is allocated
  /// (writeback data needs no fill), and false tells the hierarchy to
  /// forward the writeback further down. Writeback absorption is
  /// accounted separately from demand traffic.
  bool write_back_line(Addr addr);

  /// Folds externally accounted events into the statistics — used by
  /// the replay engine's steady-state extrapolation, which skips
  /// simulating reps once the state has closed (see append_state).
  void add_stats(const CacheStats& delta) { stats_ += delta; }

  /// Is the line currently resident (no state change)?
  bool probe(Addr addr) const;

  /// Appends a canonical form of the line state to `out`: per non-empty
  /// set, its index and its ways' (tag, dirty) in stamp order. Equal
  /// forms behave identically under any further accesses, whatever the
  /// clock read, since stamps are only compared within a set.
  void append_state(std::vector<std::uint64_t>& out) const;

  /// Invalidate everything (keeps statistics).
  void flush();

  /// Lines currently resident.
  std::size_t resident_lines() const;

 private:
  std::size_t set_of(Addr addr) const noexcept {
    return static_cast<std::size_t>(addr >> line_shift_) & set_mask_;
  }
  /// The stored tag: the line's tag plus one, so 0 marks an invalid
  /// way (tags are < 2^61 for >= 8-byte lines, so +1 never wraps).
  Addr tag_of(Addr addr) const noexcept {
    return ((addr >> line_shift_) >> set_shift_) + 1;
  }

  /// The memory behind the line state: one block, all-zero when
  /// handed out. Blocks of kMapBytes or more are anonymous mappings,
  /// whose pages the kernel zero-fills on first touch, and go back to a
  /// per-thread free list for the next Cache of the same size; the
  /// owner must hand them back all-zero (~Cache clears the sets it
  /// filled). Smaller blocks come from calloc.
  class ZeroBlock {
   public:
    /// Throws std::bad_alloc.
    explicit ZeroBlock(std::size_t bytes);
    ZeroBlock(ZeroBlock&& other) noexcept;
    ZeroBlock& operator=(ZeroBlock&&) = delete;
    ~ZeroBlock();

    std::byte* data() const noexcept { return data_; }
    bool recycled() const noexcept { return bytes_ >= kMapBytes; }

   private:
    std::byte* data_ = nullptr;
    std::size_t bytes_ = 0;
  };
  /// Block size from which line state is mapped and recycled: caches
  /// of 4 MiB and up, where the untouched sets are worth not paying
  /// for. Smaller blocks come from calloc; the heap serves them without
  /// a system call, and clearing one whole costs little.
  static constexpr std::size_t kMapBytes = std::size_t{1} << 20;

  /// Zeroes the rows of every set filled since the last clear.
  void clear_filled_sets() noexcept;

  CacheConfig config_;
  CacheStats stats_;

  // Structure-of-arrays per-set state, each sized sets * ways, indexed
  // row-major by (set, way) and carved from block_. Invalid ways are
  // all-zero: tag 0 (never a stored tag, see tag_of) and stamp 0 (valid
  // lines always stamp >= 1, so the victim scan is a single min-stamp
  // probe that naturally prefers the first invalid way, exactly like
  // the legacy first-invalid-else-oldest walk). So a zero block needs
  // no initialising stores, and a large last-level cache costs no
  // stores or page faults for the sets a replay never touches, for
  // every hierarchy a thread builds: a fresh mapping is untouched, and
  // a recycled one was cleared set by set (calloc cannot promise that:
  // once the heap recycles freed memory, calloc clears all of it).
  ZeroBlock block_;
  Addr* tags_ = nullptr;
  std::uint64_t* stamps_ = nullptr;
  std::uint8_t* dirty_ = nullptr;
  std::size_t lines_ = 0;  ///< sets * ways
  /// One bit per set: set once a line is installed in the set since the
  /// last clear. Sets without it are all-zero.
  std::vector<std::uint64_t> filled_;

  std::uint64_t clock_ = 0;
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes)
  std::uint32_t set_shift_ = 0;   ///< log2(num_sets)
  std::size_t set_mask_ = 0;      ///< num_sets - 1
  std::size_t ways_ = 0;
  bool lru_ = true;
  bool write_allocate_ = true;
};

/// An inclusive-enough multi-level hierarchy: an access walks down the
/// levels until it hits; lower levels are only consulted (and filled) on
/// a miss above. A dirty line evicted from level i is written back to
/// level i+1 after the demand walk completes: it re-dirties the line
/// when resident (write hit) and otherwise passes through as a write
/// miss towards memory without allocating. Reports per-level stats and
/// the DRAM traffic in bytes.
///
/// A hierarchy can also be one set shard of K (a power of two): the
/// log2(K) address bits just above the largest line offset pick the
/// shard, and they lie inside every level's set index, so each set of
/// every level (and every victim, which shares its set) belongs to one
/// shard. The shard's levels are ordinary Caches of size_bytes / K; it
/// processes only its own L1 segments, with the shard bits removed from
/// the address. Since LRU/FIFO stamps are only compared within a set and
/// a shard sees its sets' operations in the original order, the K
/// shards' per-level stats sum to the whole hierarchy's (see
/// docs/CACHESIM.md, "Set shards"). K = 1 is the whole hierarchy.
class Hierarchy {
 public:
  /// Accesses processed through access_run, for obs instrumentation.
  struct RunTelemetry {
    std::uint64_t runs = 0;           ///< access runs replayed
    std::uint64_t line_segments = 0;  ///< L1 tag checks those runs cost
    std::uint64_t coalesced = 0;      ///< accesses folded into segments
    std::uint64_t accesses = 0;       ///< logical accesses replayed
  };

  /// Shard `shard` of `shards` of the hierarchy `levels` describes.
  /// Throws std::invalid_argument on invalid geometry, or when `shards`
  /// is not a power of two no larger than shard_limit(levels), or
  /// `shard` is not below it.
  explicit Hierarchy(std::vector<CacheConfig> levels, std::size_t shard = 0,
                     std::size_t shards = 1);

  /// The most set shards `levels` can be split into: the largest power
  /// of two K with log2(K) bits above the largest line offset inside
  /// every level's set index. Throws like CacheConfig::validate().
  static std::size_t shard_limit(const std::vector<CacheConfig>& levels);

  /// Performs one access on a whole (one-shard) hierarchy; returns the
  /// deepest level index that HIT, or levels() if it went to memory.
  std::size_t access(Addr addr, bool is_write);

  /// Replays a whole run, coalescing the accesses that share an L1
  /// line into one tag check per line touched. Bit-identical
  /// statistics to calling `access` once per run element. A shard
  /// skips the segments of other shards and counts only its own in the
  /// telemetry, so the shards' telemetry sums to the whole's.
  void access_run(const AccessRun& run);

  std::size_t levels() const noexcept { return caches_.size(); }
  const Cache& level(std::size_t i) const { return caches_.at(i); }

  /// Adds an externally computed stats delta to one level (replay
  /// steady-state extrapolation).
  void add_stats(std::size_t level, const CacheStats& delta) {
    caches_.at(level).add_stats(delta);
  }

  /// Bytes fetched from memory (miss traffic of the last level).
  std::uint64_t dram_bytes() const;

  /// Every level's Cache::append_state, into `out` (replaced).
  void state(std::vector<std::uint64_t>& out) const;

  const RunTelemetry& telemetry() const noexcept { return telemetry_; }

 private:
  /// `n` same-line accesses: L1 tag check inline, miss walk +
  /// writebacks out of line. Returns the deepest level that hit
  /// (levels() = memory).
  std::size_t process_segment(Addr addr, bool is_write, std::uint64_t n);
  /// Demand walk below L1 plus deferred writebacks after an L1 miss.
  std::size_t miss_walk(Addr addr, bool is_write, std::uint64_t n,
                        const Cache::LineOutcome& l1_out);
  /// Walks a writeback down from `level` until a cache absorbs it.
  void write_back(std::size_t level, Addr addr);

  bool owns(Addr addr) const noexcept {
    return ((addr >> shard_shift_) & shard_mask_) == shard_;
  }
  /// The address with the shard bits taken out (the identity for one
  /// shard): the shard's caches index the remaining bits.
  Addr local(Addr addr) const noexcept {
    return ((addr >> (shard_shift_ + shard_bits_)) << shard_shift_) |
           (addr & ((Addr{1} << shard_shift_) - 1));
  }

  std::vector<Cache> caches_;
  std::uint32_t shard_shift_ = 0;  ///< largest log2(line_bytes)
  std::uint32_t shard_bits_ = 0;   ///< log2(shards)
  Addr shard_mask_ = 0;            ///< shards - 1
  Addr shard_ = 0;
  /// (next level, victim address) collected during one demand walk.
  std::vector<std::pair<std::size_t, Addr>> pending_wb_;
  RunTelemetry telemetry_;
};

}  // namespace sgp::cachesim
