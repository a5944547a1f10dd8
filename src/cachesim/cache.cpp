#include "cachesim/cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#include <sys/mman.h>

namespace sgp::cachesim {

namespace {
bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::uint32_t log2_pow2(std::size_t v) {
  std::uint32_t s = 0;
  while ((std::size_t{1} << s) < v) ++s;
  return s;
}
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

namespace {

/// Zero-filled mappings released on this thread, kept for the next
/// block of the same size: replays build a fresh hierarchy each, mostly
/// of the shape the last one had, and a recycled block's touched pages
/// are resident already. Bounded; unmapped at thread exit.
class MapPool {
 public:
  ~MapPool() {
    for (const auto& [bytes, p] : free_) ::munmap(p, bytes);
    closed_ = true;
  }

  std::byte* take(std::size_t bytes) {
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->first == bytes) {
        std::byte* const p = it->second;
        free_.erase(it);
        return p;
      }
    }
    return nullptr;
  }

  void give(std::size_t bytes, std::byte* p) {
    // A Cache destroyed after this thread's pool (by another
    // thread_local's destructor) unmaps directly.
    if (closed_ || free_.size() == kSlots) {
      ::munmap(p, bytes);
      return;
    }
    free_.emplace_back(bytes, p);
  }

 private:
  static constexpr std::size_t kSlots = 4;
  std::vector<std::pair<std::size_t, std::byte*>> free_;
  // Trivially destructible, so still readable after ~MapPool.
  static thread_local bool closed_;
};

thread_local bool MapPool::closed_ = false;
thread_local MapPool map_pool;

CacheConfig validated(CacheConfig config) {
  config.validate();
  return config;
}

}  // namespace

Cache::ZeroBlock::ZeroBlock(std::size_t bytes) : bytes_(bytes) {
  if (recycled()) {
    data_ = map_pool.take(bytes);
    if (data_ == nullptr) {
      void* const p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      data_ = static_cast<std::byte*>(p);
    }
  } else {
    data_ = static_cast<std::byte*>(std::calloc(bytes, 1));
    if (data_ == nullptr) throw std::bad_alloc();
  }
}

Cache::ZeroBlock::ZeroBlock(ZeroBlock&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), bytes_(other.bytes_) {}

Cache::ZeroBlock::~ZeroBlock() {
  if (data_ == nullptr) return;
  if (recycled()) {
    map_pool.give(bytes_, data_);
  } else {
    std::free(data_);
  }
}

Cache::Cache(CacheConfig config)
    : config_(validated(std::move(config))),
      block_(config_.size_bytes / config_.line_bytes *
             (sizeof(Addr) + sizeof(std::uint64_t) + sizeof(std::uint8_t))) {
  line_shift_ = log2_pow2(config_.line_bytes);
  set_shift_ = log2_pow2(config_.num_sets());
  set_mask_ = config_.num_sets() - 1;
  ways_ = config_.ways;
  lru_ = config_.policy == ReplacementPolicy::LRU;
  write_allocate_ = config_.write_allocate;
  lines_ = config_.num_sets() * ways_;
  tags_ = reinterpret_cast<Addr*>(block_.data());
  stamps_ = reinterpret_cast<std::uint64_t*>(tags_ + lines_);
  dirty_ = reinterpret_cast<std::uint8_t*>(stamps_ + lines_);
  filled_.assign((config_.num_sets() + 63) / 64, 0);
}

Cache::~Cache() {
  if (block_.recycled()) clear_filled_sets();
}

void Cache::clear_filled_sets() noexcept {
  for (std::size_t word = 0; word < filled_.size(); ++word) {
    // One fill per array for each run of consecutive filled sets.
    for (std::uint64_t bits = filled_[word]; bits != 0;) {
      const int first = std::countr_zero(bits);
      const int run = std::countr_one(bits >> first);
      const std::size_t begin = (word * 64 + first) * ways_;
      const std::size_t n = static_cast<std::size_t>(run) * ways_;
      std::fill_n(tags_ + begin, n, Addr{0});
      std::fill_n(stamps_ + begin, n, std::uint64_t{0});
      std::fill_n(dirty_ + begin, n, std::uint8_t{0});
      bits = run == 64 ? 0
                       : bits & ~(((std::uint64_t{1} << run) - 1) << first);
    }
    filled_[word] = 0;
  }
}

bool Cache::access(Addr addr, bool is_write) {
  return access_line(addr, is_write).hit;
}

Cache::LineOutcome Cache::access_line(Addr addr, bool is_write,
                                      std::uint64_t n) {
  assert(n >= 1);
  // Advancing the clock by n up front is equivalent to n single-access
  // bumps: no other line's stamp changes in between, so victim
  // comparisons see the same relative order.
  clock_ += n;
  const std::size_t set = set_of(addr);
  const std::size_t base = set * ways_;
  const Addr tag = tag_of(addr);
  Addr* const tags = tags_ + base;
  const std::size_t ways = ways_;

  // Linear probe over the contiguous tag row; invalid ways hold a
  // sentinel that can never match.
  std::size_t w = 0;
  while (w < ways && tags[w] != tag) ++w;
  if (w != ways) [[likely]] {
    if (lru_) stamps_[base + w] = clock_;
    if (is_write) {
      stats_.write_hits += n;
      dirty_[base + w] = 1;
    } else {
      stats_.read_hits += n;
    }
    return LineOutcome{true, false, 0};
  }

  if (is_write && !write_allocate_) {
    stats_.write_misses += n;  // write-around: every access misses
    return LineOutcome{false, false, 0};
  }
  // Allocating miss: the first access misses, the remaining n-1 hit
  // the just-installed line (nothing can evict it in between).
  if (is_write) {
    ++stats_.write_misses;
    stats_.write_hits += n - 1;
  } else {
    ++stats_.read_misses;
    stats_.read_hits += n - 1;
  }

  // Victim: minimum stamp, earliest way on ties. Invalid ways have
  // stamp 0 and valid ones >= 1 (the clock pre-increments), so this is
  // exactly the legacy "first invalid way, else oldest stamp" walk.
  std::uint64_t* const stamps = stamps_ + base;
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
      // The victim shares the incoming line's set.
      out.victim_addr = (((tags[v] - 1) << set_shift_) | set) << line_shift_;
    }
  } else if (v == 0) {
    // Ways fill in order, so an invalid way 0 means an empty set.
    filled_[set / 64] |= std::uint64_t{1} << (set % 64);
  }
  tags[v] = tag;
  dirty_[base + v] = static_cast<std::uint8_t>(is_write);
  // LRU: last use (after all n accesses). FIFO: fill time (the first).
  stamps[v] = lru_ ? clock_ : clock_ - n + 1;
  return out;
}

bool Cache::write_back_line(Addr addr) {
  ++clock_;
  const std::size_t base = set_of(addr) * ways_;
  const Addr tag = tag_of(addr);
  Addr* const tags = tags_ + base;
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

void Cache::append_state(std::vector<std::uint64_t>& out) const {
  std::vector<std::size_t> order(ways_);
  for (std::size_t word = 0; word < filled_.size(); ++word) {
    for (std::uint64_t bits = filled_[word]; bits != 0; bits &= bits - 1) {
      const std::size_t set = word * 64 + std::countr_zero(bits);
      const std::size_t base = set * ways_;
      for (std::size_t w = 0; w < ways_; ++w) order[w] = base + w;
      // Invalid ways (stamp 0, tag 0) sort first and read as 0.
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return stamps_[a] < stamps_[b];
                });
      out.push_back(set);
      for (const std::size_t i : order) {
        out.push_back(tags_[i] << 1 | dirty_[i]);
      }
    }
  }
}

void Cache::flush() { clear_filled_sets(); }

std::size_t Cache::resident_lines() const {
  return lines_ - static_cast<std::size_t>(
                      std::count(tags_, tags_ + lines_, Addr{0}));
}

std::size_t Hierarchy::shard_limit(const std::vector<CacheConfig>& levels) {
  std::uint32_t widest_line = 0;
  std::uint32_t narrowest_index = 64;  // line offset plus set index bits
  for (const auto& cfg : levels) {
    cfg.validate();
    widest_line = std::max(widest_line, log2_pow2(cfg.line_bytes));
    narrowest_index = std::min(
        narrowest_index, log2_pow2(cfg.line_bytes * cfg.num_sets()));
  }
  return narrowest_index > widest_line
             ? std::size_t{1} << (narrowest_index - widest_line)
             : 1;
}

Hierarchy::Hierarchy(std::vector<CacheConfig> levels, std::size_t shard,
                     std::size_t shards) {
  if (levels.empty()) {
    throw std::invalid_argument("Hierarchy: needs at least one level");
  }
  if (!is_pow2(shards) || shards > shard_limit(levels) || shard >= shards) {
    throw std::invalid_argument(
        "Hierarchy: shard " + std::to_string(shard) + " of " +
        std::to_string(shards) + " (at most " +
        std::to_string(shard_limit(levels)) +
        " power-of-two set shards)");
  }
  for (const auto& cfg : levels) {
    shard_shift_ = std::max(shard_shift_, log2_pow2(cfg.line_bytes));
  }
  shard_bits_ = log2_pow2(shards);
  shard_mask_ = shards - 1;
  shard_ = shard;
  caches_.reserve(levels.size());
  for (auto& cfg : levels) {
    cfg.size_bytes /= shards;
    caches_.emplace_back(std::move(cfg));
  }
  pending_wb_.reserve(caches_.size());
}

std::size_t Hierarchy::access(Addr addr, bool is_write) {
  return process_segment(addr, is_write, 1);
}

std::size_t Hierarchy::process_segment(Addr addr, bool is_write,
                                       std::uint64_t n) {
  const auto out = caches_[0].access_line(addr, is_write, n);
  if (out.hit) return 0;
  return miss_walk(addr, is_write, n, out);
}

std::size_t Hierarchy::miss_walk(Addr addr, bool is_write, std::uint64_t n,
                                 const Cache::LineOutcome& l1_out) {
  pending_wb_.clear();
  if (l1_out.writeback && caches_.size() > 1) {
    pending_wb_.emplace_back(1, l1_out.victim_addr);
  }
  // A dirty victim of the last level goes straight to memory; its
  // traffic is already counted in that level's writebacks.
  std::size_t served = caches_.size();
  // What continues below L1: an allocating miss (a read, or a write
  // on a write-allocate L1) installs the line, so only the first access
  // goes down. A write-around L1 miss installs nothing, so every write
  // of the segment falls through at full multiplicity.
  std::uint64_t n_fwd =
      is_write && !caches_[0].config().write_allocate ? n : 1;
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
  // A run belongs to the shard of its first segment, so the shards
  // count every run once between them.
  if (owns(run.base)) ++telemetry_.runs;
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
    if (owns(addr)) {
      ++telemetry_.line_segments;
      telemetry_.coalesced += n - 1;
      telemetry_.accesses += n;
      process_segment(local(addr), run.is_write, n);
    }
    addr += n * run.step_bytes;
    left -= n;
  }
}

void Hierarchy::state(std::vector<std::uint64_t>& out) const {
  out.clear();
  for (const auto& cache : caches_) {
    // The level's word count keeps the levels apart.
    const std::size_t begin = out.size();
    out.push_back(0);
    cache.append_state(out);
    out[begin] = out.size() - begin;
  }
}

std::uint64_t Hierarchy::dram_bytes() const {
  const auto& last = caches_.back();
  return last.stats().lines_below() * last.config().line_bytes;
}

}  // namespace sgp::cachesim
