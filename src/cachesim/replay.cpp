#include "cachesim/replay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sgp::cachesim {

namespace {

constexpr Addr kGuard = 1 << 16;  // space between arrays

}  // namespace

TraceCursor::TraceCursor(const SweepSpec& spec) : spec_(spec) {
  using core::AccessPattern;
  if (spec_.arrays == 0 || spec_.elems == 0) {
    throw std::invalid_argument("generate_sweep: empty spec");
  }
  reads_ = spec_.arrays > 1 ? spec_.arrays - 1 : 1;
  has_write_ = spec_.arrays > 1;
  streams_ = reads_ + (has_write_ ? 1 : 0);
  stride_ = std::max<std::size_t>(1, spec_.stride_elems);

  switch (spec_.pattern) {
    case AccessPattern::Streaming:
    case AccessPattern::Reduction:
    case AccessPattern::Strided:
      // Every element visited once per stream (strided phases cover
      // [0, elems) exactly).
      total_ = static_cast<std::uint64_t>(spec_.elems) * streams_;
      break;
    case AccessPattern::Stencil1D:
      streams_ = 2;  // one 3-read run + one write run per element
      total_ = spec_.elems >= 3
                   ? 4 * static_cast<std::uint64_t>(spec_.elems - 2)
                   : 0;
      break;
    case AccessPattern::Gather:
      streams_ = 2;
      total_ = 2 * static_cast<std::uint64_t>(spec_.elems);
      break;
    case AccessPattern::Sequential:
    case AccessPattern::Sort:
      streams_ = 2;  // read-modify-write per element
      total_ = 2 * static_cast<std::uint64_t>(spec_.elems);
      break;
    case AccessPattern::Stencil2D:
    case AccessPattern::Stencil3D:
    case AccessPattern::BlockedMatrix:
      row_ = std::max<std::size_t>(
          8, static_cast<std::size_t>(std::sqrt(spec_.elems)));
      streams_ = 2 + (spec_.arrays > 1 ? 1 : 0);
      total_ = spec_.elems > row_
                   ? static_cast<std::uint64_t>(spec_.elems - row_) * streams_
                   : 0;
      break;
  }
  rewind();
}

Addr TraceCursor::array_addr(std::size_t array, std::size_t elem) const {
  const Addr span =
      static_cast<Addr>(spec_.elems) * spec_.elem_bytes;
  return spec_.base + static_cast<Addr>(array) * (span + kGuard) +
         static_cast<Addr>(elem) * spec_.elem_bytes;
}

void TraceCursor::rewind() {
  using core::AccessPattern;
  i_ = spec_.pattern == AccessPattern::Stencil1D ? 1 : 0;
  if (spec_.pattern == AccessPattern::Stencil2D ||
      spec_.pattern == AccessPattern::Stencil3D ||
      spec_.pattern == AccessPattern::BlockedMatrix) {
    i_ = row_;
  }
  k_ = 0;
  phase_ = 0;
  stream_ = 0;
  if (spec_.pattern == AccessPattern::Gather) {
    rng_.seed(spec_.seed);
    dist_ = std::uniform_int_distribution<std::size_t>(0, spec_.elems - 1);
  }
}

bool TraceCursor::next(AccessRun& out) {
  using core::AccessPattern;
  const std::uint64_t eb = spec_.elem_bytes;

  switch (spec_.pattern) {
    case AccessPattern::Streaming:
    case AccessPattern::Reduction: {
      if (i_ >= spec_.elems) return false;
      const std::size_t blk = std::min(kRunBlockElems, spec_.elems - i_);
      const bool write = has_write_ && stream_ == reads_;
      out = AccessRun{array_addr(stream_, i_), eb, blk, write};
      if (++stream_ == streams_) {
        stream_ = 0;
        i_ += blk;
      }
      return true;
    }

    case AccessPattern::Strided: {
      while (phase_ < stride_) {
        const std::size_t count =
            phase_ < spec_.elems ? (spec_.elems - phase_ - 1) / stride_ + 1
                                 : 0;
        if (k_ >= count) {
          ++phase_;
          k_ = 0;
          continue;
        }
        const std::size_t blk = std::min(kRunBlockElems, count - k_);
        const std::size_t elem0 = phase_ + k_ * stride_;
        const bool write = has_write_ && stream_ == reads_;
        out = AccessRun{array_addr(stream_, elem0), stride_ * eb, blk, write};
        if (++stream_ == streams_) {
          stream_ = 0;
          k_ += blk;
        }
        return true;
      }
      return false;
    }

    case AccessPattern::Stencil1D: {
      // i-1, i, i+1 from array 0; write array 1 (always, like the
      // legacy generator).
      if (spec_.elems < 3 || i_ + 1 >= spec_.elems) return false;
      if (stream_ == 0) {
        out = AccessRun{array_addr(0, i_ - 1), eb, 3, false};
        stream_ = 1;
      } else {
        out = AccessRun{array_addr(1, i_), 0, 1, true};
        stream_ = 0;
        ++i_;
      }
      return true;
    }

    case AccessPattern::Gather: {
      // index load (sequential) + gathered data load (random).
      if (i_ >= spec_.elems) return false;
      if (stream_ == 0) {
        out = AccessRun{array_addr(0, i_), 0, 1, false};
        stream_ = 1;
      } else {
        out = AccessRun{array_addr(1, dist_(rng_)), 0, 1, false};
        stream_ = 0;
        ++i_;
      }
      return true;
    }

    case AccessPattern::Sequential:
    case AccessPattern::Sort: {
      // A forward sweep with read-modify-write (recurrence-like).
      if (i_ >= spec_.elems) return false;
      out = AccessRun{array_addr(0, i_), 0, 1, stream_ == 1};
      if (++stream_ == 2) {
        stream_ = 0;
        ++i_;
      }
      return true;
    }

    case AccessPattern::Stencil2D:
    case AccessPattern::Stencil3D:
    case AccessPattern::BlockedMatrix: {
      // Row sweep with a re-visited neighbour row one "row" back.
      if (i_ >= spec_.elems) return false;
      if (stream_ == 0) {
        out = AccessRun{array_addr(0, i_), 0, 1, false};
      } else if (stream_ == 1) {
        out = AccessRun{array_addr(0, i_ - row_), 0, 1, false};
      } else {
        out = AccessRun{array_addr(1, i_), 0, 1, true};
      }
      if (++stream_ == streams_) {
        stream_ = 0;
        ++i_;
      }
      return true;
    }
  }
  return false;
}

namespace {

std::vector<CacheStats> level_stats(const Hierarchy& h) {
  std::vector<CacheStats> out;
  out.reserve(h.levels());
  for (std::size_t i = 0; i < h.levels(); ++i) {
    out.push_back(h.level(i).stats());
  }
  return out;
}

/// Fills the steady-state fields from the measured rep's per-level
/// stats delta.
void set_steady_state(ReplayResult& result,
                      const std::vector<CacheStats>& delta) {
  for (const auto& d : delta) {
    result.steady_miss_rate.push_back(d.miss_rate());
  }
  // What Hierarchy::dram_bytes() adds over that rep.
  const CacheStats& last = delta.back();
  result.steady_dram_bytes =
      (last.misses() + last.writebacks + last.wb_misses) *
      result.hierarchy.level(delta.size() - 1).config().line_bytes;
}

struct RepLoopOutcome {
  std::vector<CacheStats> final_delta;  ///< last (or periodic) rep delta
  std::uint64_t skipped = 0;            ///< reps extrapolated, not run
};

/// The streaming rep loop: stream the sweep per rep, and once two
/// consecutive reps have identical per-level stats deltas the cache
/// state is periodic, so the remaining reps each add exactly this
/// delta again — extrapolate instead of simulating them.
RepLoopOutcome run_reps(Hierarchy& h, TraceCursor& cursor, int reps) {
  const std::size_t nlevels = h.levels();
  std::vector<CacheStats> prev(nlevels), delta(nlevels),
      prev_delta(nlevels);
  bool have_prev_delta = false;
  RepLoopOutcome out;
  AccessRun run;
  for (int r = 0; r < reps; ++r) {
    cursor.rewind();
    while (cursor.next(run)) h.access_run(run);
    const auto now = level_stats(h);
    for (std::size_t i = 0; i < nlevels; ++i) {
      delta[i] = now[i];
      delta[i] -= prev[i];
    }
    prev = now;
    if (have_prev_delta && delta == prev_delta && r + 1 < reps) {
      out.skipped = static_cast<std::uint64_t>(reps - (r + 1));
      for (std::size_t i = 0; i < nlevels; ++i) {
        h.add_stats(i, delta[i].scaled(out.skipped));
      }
      break;
    }
    prev_delta = delta;
    have_prev_delta = true;
  }
  // The final rep's delta (shared by every extrapolated rep) is the
  // steady state, exactly as the legacy last-rep measurement.
  out.final_delta = std::move(delta);
  return out;
}

void count_replay_obs(const Hierarchy::RunTelemetry& t,
                      std::uint64_t skipped) {
  auto& reg = obs::registry();
  reg.counter("cachesim.replays").add();
  reg.counter("cachesim.runs").add(t.runs);
  reg.counter("cachesim.line_segments").add(t.line_segments);
  reg.counter("cachesim.accesses_coalesced").add(t.coalesced);
  reg.counter("cachesim.accesses_simulated").add(t.accesses);
  reg.counter("cachesim.reps_skipped").add(skipped);
}

}  // namespace

ReplayResult replay_stream(const std::vector<CacheConfig>& cfgs,
                           const SweepSpec& spec, int reps) {
  if (reps < 1) throw std::invalid_argument("replay: reps must be >= 1");
  if (cfgs.empty()) {
    throw std::invalid_argument("replay: needs at least one level");
  }
  obs::Span span("cachesim.replay");

  TraceCursor cursor(spec);
  ReplayResult result{Hierarchy(cfgs), 0, {}, 0};
  const auto out = run_reps(result.hierarchy, cursor, reps);
  // Simulated + extrapolated reps all cover the full sweep.
  result.accesses =
      cursor.total_accesses() * static_cast<std::uint64_t>(reps);
  set_steady_state(result, out.final_delta);
  count_replay_obs(result.hierarchy.telemetry(), out.skipped);
  return result;
}

}  // namespace sgp::cachesim
