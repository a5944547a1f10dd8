// Crash-safe persistence for the sweep engine's memo cache.
//
// Durability model (docs/PERSISTENCE.md has the full story):
//   * a store is a directory of versioned, append-only *segment files*
//     ("seg-000001.sgpc", ...). Segments are immutable once written;
//     a flush appends a new segment, it never rewrites an old one;
//   * every segment is produced write-temp-then-rename, so a crash
//     leaves either no new segment or a complete one — plus possibly a
//     "*.tmp" file, which the loader deletes as debris;
//   * every entry carries an FNV-1a checksum and the header declares
//     the entry count, so torn writes, bit rot and truncation — even
//     truncation at an exact entry boundary — are detected;
//   * a segment is the atomic unit of recovery: the loader verifies
//     every entry before delivering any, renames segments that fail
//     verification to "<name>.quarantine" (skip-and-warn, never abort)
//     and refuses files with unknown version headers in place, so a
//     newer tool's data is never destroyed;
//   * all I/O can be fault-injected (resilience::FaultInjector sites
//     "persist.write", "persist.rename", "persist.read") and failed
//     flushes retry under a jittered resilience::RetryPolicy.
//
// Everything observable lands in the obs registry under "persist.*".
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/cache.hpp"
#include "resilience/retry.hpp"
#include "sim/simulator.hpp"

namespace sgp::resilience {
class FaultInjector;
}

namespace sgp::engine {

// --------------------------------------------- segment byte format --

/// 8-byte magic at offset 0 of every segment file.
inline constexpr char kSegmentMagic[8] = {'S', 'G', 'P', 'C',
                                          'S', 'E', 'G', '\0'};
/// Current format version; loaders refuse anything else. Version 2
/// replaced the free-text note bytes in each cache entry with the four
/// structured note fields (kind, compiler, mode, rollback).
inline constexpr std::uint32_t kSegmentVersion = 2;
/// Header: magic(8) + version(4) + reserved(4, must be 0) + entry
/// count(8). Entries follow: [len u32][payload][fnv1a(payload) u64].
inline constexpr std::size_t kSegmentHeaderSize = 24;

enum class SegmentStatus {
  Ok,          ///< fully verified, entries delivered
  Missing,     ///< file absent or unreadable
  BadMagic,    ///< not a segment file (or its header was destroyed)
  BadVersion,  ///< a version this build does not understand — refused
  Corrupt,     ///< framing/checksum/count violation — quarantine
};

std::string_view to_string(SegmentStatus s) noexcept;

/// Outcome of parsing one segment.
struct SegmentParse {
  SegmentStatus status = SegmentStatus::Ok;
  std::uint64_t declared_entries = 0;  ///< header count (0 if unreadable)
  std::uint64_t entries = 0;           ///< entries delivered (Ok only)
  std::string detail;                  ///< first problem, human-readable
};

using PayloadFn = std::function<void(std::span<const std::byte>)>;

/// Renders payloads into segment bytes (header + framed entries).
std::vector<std::byte> build_segment(
    const std::vector<std::vector<std::byte>>& payloads);

/// Verifies `bytes` as a complete segment. Entries are delivered to
/// `fn` only when the whole segment verifies (the segment is the
/// atomic recovery unit); on any status other than Ok, `fn` is never
/// called. Never throws on malformed input.
SegmentParse parse_segment(std::span<const std::byte> bytes,
                           const PayloadFn& fn);

// ------------------------------------------------ segment file I/O --

/// Atomically replaces `path` with a segment of `payloads`: writes
/// `path + ".tmp"`, flushes, renames. Fault sites: "persist.write"
/// (TornWrite truncates silently — modelling a crash/partial flush
/// that still renamed; NoSpace fails the write), "persist.rename"
/// (RenameFail). Returns false on a detected failure (the temp file is
/// removed); a torn write is *undetected* by design and returns true.
bool write_segment_file(const std::string& path,
                        const std::vector<std::vector<std::byte>>& payloads,
                        resilience::FaultInjector* injector, bool warn);

/// Reads and parses `path`. Fault site: "persist.read" (BitFlipRead
/// flips one bit of the in-memory buffer before parsing). On BadMagic
/// or Corrupt the file is renamed to `path + ".quarantine"`; on
/// BadVersion it is refused but left untouched. Never throws for data
/// reasons.
SegmentParse load_segment_file(const std::string& path, const PayloadFn& fn,
                               resilience::FaultInjector* injector,
                               bool warn);

// ------------------------------------------- cache entry payloads --

/// Serializes one memo-cache entry (key fingerprints + the complete
/// TimeBreakdown, structured note fields included) as a segment payload.
std::vector<std::byte> encode_cache_entry(const CacheKey& key,
                                          const sim::TimeBreakdown& value);

/// Inverse of encode_cache_entry; nullopt on any framing violation.
std::optional<std::pair<CacheKey, sim::TimeBreakdown>> decode_cache_entry(
    std::span<const std::byte> payload);

// ------------------------------------------------------ the store --

struct PersistStats {
  std::uint64_t segments_loaded = 0;
  std::uint64_t entries_loaded = 0;
  std::uint64_t corrupt_entries = 0;  ///< entries lost in quarantined segments
  std::uint64_t quarantined_segments = 0;
  std::uint64_t refused_segments = 0;  ///< unknown version, left in place
  std::uint64_t flushes = 0;           ///< segments appended successfully
  std::uint64_t flush_failures = 0;    ///< append attempts that failed
  std::uint64_t entries_flushed = 0;
};

struct PersistOptions {
  std::string dir;
  /// Optional I/O fault injection (not owned; must outlive the store).
  resilience::FaultInjector* injector = nullptr;
  /// Failed segment appends retry under this policy. Jitter keeps a
  /// fleet of replicas hitting the same full disk from retrying in
  /// lockstep; the seed keeps each run reproducible.
  resilience::RetryPolicy retry{/*max_attempts=*/3,
                                /*backoff_initial_ms=*/2.0,
                                /*backoff_multiplier=*/2.0,
                                /*backoff_max_ms=*/50.0,
                                /*jitter=*/0.5};
  bool warn = true;  ///< print skip-and-warn diagnostics to stderr
};

/// A directory of segment files. Thread-compatible: callers (the
/// engine's flush path) serialize access; load() happens once before
/// any append().
class PersistentStore {
 public:
  /// Creates the directory if needed and deletes "*.tmp" crash debris.
  /// Throws std::runtime_error only if the directory cannot be created.
  explicit PersistentStore(PersistOptions opt);

  const PersistOptions& options() const noexcept { return opt_; }

  /// Replays every payload of every *fully verified* segment, in
  /// segment-name order. Corrupt segments are quarantined, unknown
  /// versions refused; neither aborts the load.
  void load(const PayloadFn& fn);

  /// Appends `payloads` as one new segment, retrying failed attempts
  /// under the retry policy. Returns true on (apparent) success; the
  /// caller keeps ownership of the payload data and may re-queue it on
  /// failure.
  bool append(const std::vector<std::vector<std::byte>>& payloads);

  PersistStats stats() const { return stats_; }

 private:
  std::string segment_path(std::uint64_t seq) const;

  PersistOptions opt_;
  std::uint64_t next_seq_ = 1;
  PersistStats stats_;
};

}  // namespace sgp::engine
