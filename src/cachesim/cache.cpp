#include "cachesim/cache.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <new>
#include <stdexcept>

namespace sgp::cachesim {

namespace {
bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::uint32_t log2_pow2(std::size_t v) {
  std::uint32_t s = 0;
  while ((std::size_t{1} << s) < v) ++s;
  return s;
}

constexpr std::uint32_t kChunkMax =
    std::numeric_limits<std::uint32_t>::max();
}  // namespace

void CacheConfig::validate() const {
  if (!is_pow2(line_bytes) || line_bytes < 8) {
    throw std::invalid_argument(name + ": line size must be a power of two >= 8");
  }
  if (ways == 0 || size_bytes == 0) {
    throw std::invalid_argument(name + ": zero size or ways");
  }
  if (size_bytes % (line_bytes * ways) != 0) {
    throw std::invalid_argument(name +
                                ": size not divisible by line*ways");
  }
  if (!is_pow2(num_sets())) {
    throw std::invalid_argument(name + ": set count must be a power of two");
  }
}

template <typename T>
Cache::ZeroedArray<T> Cache::zeroed(std::size_t n) {
  T* const p = static_cast<T*>(std::calloc(n, sizeof(T)));
  if (p == nullptr) throw std::bad_alloc();
  return ZeroedArray<T>(p);
}

Cache::Cache(CacheConfig config) : config_(std::move(config)) {
  config_.validate();
  line_shift_ = log2_pow2(config_.line_bytes);
  set_shift_ = log2_pow2(config_.num_sets());
  set_mask_ = config_.num_sets() - 1;
  ways_ = config_.ways;
  lru_ = config_.policy == ReplacementPolicy::LRU;
  write_allocate_ = config_.write_allocate;
  lines_ = config_.num_sets() * ways_;
  tags_ = zeroed<Addr>(lines_);
  stamps_ = zeroed<std::uint64_t>(lines_);
  dirty_ = zeroed<std::uint8_t>(lines_);
}

bool Cache::access(Addr addr, bool is_write) {
  return access_rw(addr, is_write ? 0u : 1u, is_write ? 1u : 0u).hit;
}

Cache::LineOutcome Cache::access_line(Addr addr, bool is_write,
                                      std::uint64_t n) {
  // Chunking a huge run is exact: after the first chunk the line is
  // resident (or write-around misses keep missing), so the outcome of
  // the first chunk is the outcome of the whole run.
  std::uint32_t first =
      static_cast<std::uint32_t>(n < kChunkMax ? n : kChunkMax);
  LineOutcome out = access_rw(addr, is_write ? 0u : first,
                              is_write ? first : 0u);
  for (std::uint64_t left = n - first; left > 0;) {
    const std::uint32_t chunk =
        static_cast<std::uint32_t>(left < kChunkMax ? left : kChunkMax);
    access_rw(addr, is_write ? 0u : chunk, is_write ? chunk : 0u);
    left -= chunk;
  }
  return out;
}

Cache::LineOutcome Cache::access_rw(Addr addr, std::uint32_t reads,
                                    std::uint32_t writes) {
  assert(reads + std::uint64_t{writes} >= 1);
  const std::uint64_t n = std::uint64_t{reads} + writes;
  // Advancing the clock by n up front is equivalent to n single-access
  // bumps: no other line's stamp changes in between, so victim
  // comparisons see the same relative order.
  clock_ += n;
  const std::size_t base = set_of(addr) * ways_;
  const Addr tag = tag_of(addr);
  Addr* const tags = tags_.get() + base;
  const std::size_t ways = ways_;

  // Linear probe over the contiguous tag row; invalid ways hold a
  // sentinel that can never match.
  std::size_t w = 0;
  while (w < ways && tags[w] != tag) ++w;
  if (w != ways) [[likely]] {
    if (lru_) stamps_[base + w] = clock_;
    stats_.read_hits += reads;
    stats_.write_hits += writes;
    dirty_[base + w] = static_cast<std::uint8_t>(dirty_[base + w] |
                                                 (writes != 0));
    return LineOutcome{true, false, 0};
  }

  if (reads == 0 && !write_allocate_) {
    stats_.write_misses += writes;  // write-around: every access misses
    return LineOutcome{false, false, 0};
  }
  // Allocating miss: the first access misses, the remaining n-1 hit
  // the just-installed line (nothing can evict it in between). Reads
  // always allocate, so a read-modify-write segment's writes all hit.
  if (reads > 0) {
    ++stats_.read_misses;
    stats_.read_hits += reads - 1;
    stats_.write_hits += writes;
  } else {
    ++stats_.write_misses;
    stats_.write_hits += writes - 1;
  }

  // Victim: minimum stamp, earliest way on ties. Invalid ways have
  // stamp 0 and valid ones >= 1 (the clock pre-increments), so this is
  // exactly the legacy "first invalid way, else oldest stamp" walk.
  std::uint64_t* const stamps = stamps_.get() + base;
  std::size_t v = 0;
  for (std::size_t i = 1; i < ways; ++i) {
    if (stamps[i] < stamps[v]) v = i;
  }
  LineOutcome out{false, false, 0};
  if (stamps[v] != 0) {
    ++stats_.evictions;
    if (dirty_[base + v]) {
      ++stats_.writebacks;
      out.writeback = true;
      // The victim shares the incoming line's set (row base / ways).
      const Addr set = static_cast<Addr>(base / ways);
      out.victim_addr = (((tags[v] - 1) << set_shift_) | set) << line_shift_;
    }
  }
  tags[v] = tag;
  dirty_[base + v] = static_cast<std::uint8_t>(writes != 0);
  // LRU: last use (after all n accesses). FIFO: fill time (the first).
  stamps[v] = lru_ ? clock_ : clock_ - n + 1;
  return out;
}

std::uint64_t Cache::access_batch(std::span<const LineSegment> segs) {
  std::uint64_t accesses = 0;
  for (const auto& s : segs) {
    accesses += std::uint64_t{s.reads} + s.writes;
    (void)access_rw(s.addr, s.reads, s.writes);
  }
  return accesses;
}

bool Cache::write_back_line(Addr addr) {
  ++clock_;
  const std::size_t base = set_of(addr) * ways_;
  const Addr tag = tag_of(addr);
  Addr* const tags = tags_.get() + base;
  for (std::size_t w = 0; w < ways_; ++w) {
    if (tags[w] == tag) {
      if (lru_) stamps_[base + w] = clock_;
      dirty_[base + w] = 1;
      ++stats_.wb_hits;
      return true;
    }
  }
  ++stats_.wb_misses;
  return false;
}

bool Cache::probe(Addr addr) const {
  const std::size_t base = set_of(addr) * ways_;
  const Addr tag = tag_of(addr);
  for (std::size_t w = 0; w < ways_; ++w) {
    if (tags_[base + w] == tag) return true;
  }
  return false;
}

void Cache::flush() {
  std::fill_n(tags_.get(), lines_, Addr{0});
  std::fill_n(stamps_.get(), lines_, std::uint64_t{0});
  std::fill_n(dirty_.get(), lines_, std::uint8_t{0});
}

std::size_t Cache::resident_lines() const {
  return lines_ - static_cast<std::size_t>(
                      std::count(tags_.get(), tags_.get() + lines_, Addr{0}));
}

Hierarchy::Hierarchy(std::vector<CacheConfig> levels) {
  if (levels.empty()) {
    throw std::invalid_argument("Hierarchy: needs at least one level");
  }
  caches_.reserve(levels.size());
  for (auto& cfg : levels) caches_.emplace_back(std::move(cfg));
  pending_wb_.reserve(caches_.size());
}

std::size_t Hierarchy::access(Addr addr, bool is_write) {
  return process_segment(addr, is_write ? 0u : 1u, is_write ? 1u : 0u);
}

std::size_t Hierarchy::process_segment(Addr addr, std::uint32_t reads,
                                       std::uint32_t writes) {
  const auto out = caches_[0].access_rw(addr, reads, writes);
  if (out.hit) return 0;
  return miss_walk(addr, reads, writes, out);
}

std::size_t Hierarchy::miss_walk(Addr addr, std::uint32_t reads,
                                 std::uint32_t writes,
                                 const Cache::LineOutcome& l1_out) {
  pending_wb_.clear();
  if (l1_out.writeback && caches_.size() > 1) {
    pending_wb_.emplace_back(1, l1_out.victim_addr);
  }
  // A dirty victim of the last level goes straight to memory; its
  // traffic is already counted in that level's writebacks.
  std::size_t served = caches_.size();
  // What continues below L1: an allocating miss (any segment with
  // reads, or a write-allocate L1) installs the line, so only the
  // first access — a read if the segment had any — goes down. A
  // write-around L1 miss installs nothing, so every write of the
  // segment falls through at full multiplicity.
  bool is_write;
  std::uint64_t n_fwd;
  if (reads > 0 || caches_[0].config().write_allocate) {
    is_write = reads == 0;
    n_fwd = 1;
  } else {
    is_write = true;
    n_fwd = writes;
  }
  for (std::size_t i = 1; i < caches_.size(); ++i) {
    const auto out = caches_[i].access_line(addr, is_write, n_fwd);
    if (out.writeback && i + 1 < caches_.size()) {
      pending_wb_.emplace_back(i + 1, out.victim_addr);
    }
    if (out.hit) {
      served = i;
      break;
    }
    if (!(is_write && !caches_[i].config().write_allocate)) n_fwd = 1;
  }
  for (const auto& [level, victim] : pending_wb_) {
    write_back(level, victim);
  }
  return served;
}

void Hierarchy::write_back(std::size_t level, Addr addr) {
  for (std::size_t i = level; i < caches_.size(); ++i) {
    if (caches_[i].write_back_line(addr)) return;  // absorbed
  }
  // Missed every remaining level: the write miss counted at the last
  // level is the DRAM write traffic (see dram_bytes()).
}

void Hierarchy::access_run(const AccessRun& run) {
  ++telemetry_.runs;
  telemetry_.accesses += run.count;
  const Addr line = caches_.front().config().line_bytes;
  Addr addr = run.base;
  std::uint64_t left = run.count;
  while (left > 0) {
    std::uint64_t n = left;
    if (run.step_bytes != 0) {
      const Addr line_end = addr - addr % line + line;
      const std::uint64_t fit = (line_end - 1 - addr) / run.step_bytes + 1;
      n = std::min(left, fit);
    }
    ++telemetry_.line_segments;
    telemetry_.coalesced += n - 1;
    for (std::uint64_t todo = n; todo > 0;) {
      const auto chunk = static_cast<std::uint32_t>(
          todo < kChunkMax ? todo : kChunkMax);
      process_segment(addr, run.is_write ? 0u : chunk,
                      run.is_write ? chunk : 0u);
      todo -= chunk;
    }
    addr += n * run.step_bytes;
    left -= n;
  }
}

void Hierarchy::access_batch(std::span<const LineSegment> segs,
                             std::uint64_t runs) {
  Cache& l1 = caches_[0];
  std::uint64_t accesses = 0;
  if (caches_.size() == 1) {
    accesses = l1.access_batch(segs);
  } else {
    for (const auto& s : segs) {
      accesses += std::uint64_t{s.reads} + s.writes;
      const auto out = l1.access_rw(s.addr, s.reads, s.writes);
      if (!out.hit) [[unlikely]] {
        miss_walk(s.addr, s.reads, s.writes, out);
      }
    }
  }
  telemetry_.runs += runs;
  telemetry_.line_segments += segs.size();
  telemetry_.accesses += accesses;
  telemetry_.coalesced += accesses - segs.size();
}

std::uint64_t Hierarchy::dram_bytes() const {
  // Last-level demand misses are fills from memory; dirty evictions
  // from the last level and writebacks that pass through it unabsorbed
  // are writes to memory.
  const auto& last = caches_.back();
  return (last.stats().misses() + last.stats().writebacks +
          last.stats().wb_misses) *
         last.config().line_bytes;
}

void Hierarchy::flush() {
  for (auto& c : caches_) c.flush();
}

}  // namespace sgp::cachesim
