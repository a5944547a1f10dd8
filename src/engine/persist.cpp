#include "engine/persist.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "engine/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "resilience/fault_injector.hpp"

namespace fs = std::filesystem;

namespace sgp::engine {

namespace {

/// Process-wide mirrors of the store statistics ("persist.*"), so a
/// metrics snapshot / run manifest carries the persistence story
/// without asking each store instance.
struct PersistMetrics {
  obs::Counter& entries_loaded =
      obs::registry().counter("persist.entries_loaded");
  obs::Counter& corrupt_entries =
      obs::registry().counter("persist.corrupt_entries");
  obs::Counter& quarantined_segments =
      obs::registry().counter("persist.quarantined_segments");
  obs::Counter& refused_segments =
      obs::registry().counter("persist.refused_segments");
  obs::Counter& flushes = obs::registry().counter("persist.flushes");
  obs::Counter& flush_failures =
      obs::registry().counter("persist.flush_failures");
  obs::Counter& entries_flushed =
      obs::registry().counter("persist.entries_flushed");

  static PersistMetrics& get() {
    static PersistMetrics* m = new PersistMetrics();
    return *m;
  }
};

void warn_msg(bool warn, const std::string& msg) {
  if (warn) std::cerr << "persist: warning: " << msg << "\n";
}

// ------------------------------------------------- byte plumbing --

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const auto n = out.size();
  out.resize(n + sizeof v);
  std::memcpy(out.data() + n, &v, sizeof v);
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const auto n = out.size();
  out.resize(n + sizeof v);
  std::memcpy(out.data() + n, &v, sizeof v);
}

void put_f64(std::vector<std::byte>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// Bounds-checked cursor over a payload; any over-read flags failure
/// instead of touching out-of-range memory.
struct Reader {
  std::span<const std::byte> buf;
  std::size_t pos = 0;
  bool ok = true;

  bool take(void* dst, std::size_t n) {
    if (!ok || buf.size() - pos < n) {
      ok = false;
      return false;
    }
    std::memcpy(dst, buf.data() + pos, n);
    pos += n;
    return true;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    take(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    take(&v, sizeof v);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
};

std::uint64_t payload_checksum(std::span<const std::byte> payload) {
  Fnv1a h;
  h.bytes(payload.data(), payload.size());
  return h.digest();
}

}  // namespace

std::string_view to_string(SegmentStatus s) noexcept {
  switch (s) {
    case SegmentStatus::Ok:         return "ok";
    case SegmentStatus::Missing:    return "missing";
    case SegmentStatus::BadMagic:   return "bad-magic";
    case SegmentStatus::BadVersion: return "bad-version";
    case SegmentStatus::Corrupt:    return "corrupt";
  }
  return "?";
}

// ------------------------------------------------ segment codec --

std::vector<std::byte> build_segment(
    const std::vector<std::vector<std::byte>>& payloads) {
  std::vector<std::byte> out;
  std::size_t total = kSegmentHeaderSize;
  for (const auto& p : payloads) total += p.size() + 12;
  out.reserve(total);
  const auto n = out.size();
  out.resize(n + sizeof kSegmentMagic);
  std::memcpy(out.data() + n, kSegmentMagic, sizeof kSegmentMagic);
  put_u32(out, kSegmentVersion);
  put_u32(out, 0);  // reserved
  put_u64(out, payloads.size());
  for (const auto& p : payloads) {
    put_u32(out, static_cast<std::uint32_t>(p.size()));
    out.insert(out.end(), p.begin(), p.end());
    put_u64(out, payload_checksum(p));
  }
  return out;
}

SegmentParse parse_segment(std::span<const std::byte> bytes,
                           const PayloadFn& fn) {
  SegmentParse out;
  auto corrupt = [&](std::string detail) {
    out.status = SegmentStatus::Corrupt;
    out.detail = std::move(detail);
    return out;
  };
  if (bytes.size() < sizeof kSegmentMagic ||
      std::memcmp(bytes.data(), kSegmentMagic, sizeof kSegmentMagic) != 0) {
    out.status = SegmentStatus::BadMagic;
    out.detail = "not a segment file";
    return out;
  }
  if (bytes.size() < kSegmentHeaderSize) return corrupt("truncated header");
  Reader r{bytes, sizeof kSegmentMagic};
  const std::uint32_t version = r.u32();
  const std::uint32_t reserved = r.u32();
  std::uint64_t declared = r.u64();
  // Clamp to what the file could physically frame (>= 12 bytes per
  // entry), so a bit-flipped count field cannot inflate loss counters.
  const std::uint64_t plausible =
      (bytes.size() - kSegmentHeaderSize) / 12 + 1;
  out.declared_entries = std::min<std::uint64_t>(declared, plausible);
  if (version != kSegmentVersion) {
    out.status = SegmentStatus::BadVersion;
    out.detail = "version " + std::to_string(version) +
                 " (this build reads " + std::to_string(kSegmentVersion) +
                 ")";
    return out;
  }
  if (reserved != 0) return corrupt("nonzero reserved header field");

  // First pass: verify every frame before delivering anything — the
  // segment is the atomic unit of recovery.
  std::vector<std::span<const std::byte>> payloads;
  payloads.reserve(static_cast<std::size_t>(out.declared_entries));
  for (std::uint64_t i = 0; i < declared; ++i) {
    const std::uint32_t len = r.u32();
    if (!r.ok || bytes.size() - r.pos < len + sizeof(std::uint64_t)) {
      return corrupt("entry " + std::to_string(i) + ": truncated frame");
    }
    const std::span<const std::byte> payload(bytes.data() + r.pos, len);
    r.pos += len;
    const std::uint64_t sum = r.u64();
    if (sum != payload_checksum(payload)) {
      return corrupt("entry " + std::to_string(i) + ": checksum mismatch");
    }
    payloads.push_back(payload);
  }
  if (r.pos != bytes.size()) {
    return corrupt("trailing bytes after declared entries");
  }
  if (fn) {
    for (const auto& p : payloads) fn(p);
  }
  out.entries = payloads.size();
  return out;
}

// --------------------------------------------- segment file I/O --

bool write_segment_file(const std::string& path,
                        const std::vector<std::vector<std::byte>>& payloads,
                        resilience::FaultInjector* injector, bool warn) {
  const std::vector<std::byte> bytes = build_segment(payloads);
  const std::string tmp = path + ".tmp";

  resilience::ArmedFault wf;
  if (injector) wf = injector->arm("persist.write");
  std::size_t n = bytes.size();
  bool write_failed = wf.kind == resilience::FaultKind::NoSpace;
  if (wf.kind == resilience::FaultKind::TornWrite && !bytes.empty()) {
    // The torn write *reports success*: this is the crash/reordering
    // model where the rename landed but the data did not. Recovery
    // happens at the next load, via checksums and quarantine.
    n = wf.entropy % bytes.size();
  }
  if (!write_failed) {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(n));
    write_failed = !out.flush().good();
  }
  if (write_failed) {
    std::error_code ec;
    fs::remove(tmp, ec);
    warn_msg(warn, "write of " + tmp + " failed" +
                       (wf.kind == resilience::FaultKind::NoSpace
                            ? " (injected ENOSPC)"
                            : ""));
    return false;
  }

  resilience::ArmedFault rf;
  if (injector) rf = injector->arm("persist.rename");
  std::error_code ec;
  if (rf.kind == resilience::FaultKind::RenameFail) {
    ec = std::make_error_code(std::errc::io_error);
  } else {
    fs::rename(tmp, path, ec);
  }
  if (ec) {
    std::error_code ec2;
    fs::remove(tmp, ec2);
    warn_msg(warn, "rename " + tmp + " -> " + path + " failed: " +
                       ec.message());
    return false;
  }
  return true;
}

SegmentParse load_segment_file(const std::string& path, const PayloadFn& fn,
                               resilience::FaultInjector* injector,
                               bool warn) {
  SegmentParse out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.status = SegmentStatus::Missing;
    out.detail = "cannot open " + path;
    return out;
  }
  // One read, sized from the file; a file that shrank meanwhile keeps
  // what was read, and parse_segment judges it.
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::byte> buf(size > 0 ? static_cast<std::size_t>(size) : 0);
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  buf.resize(static_cast<std::size_t>(in.gcount()));
  if (injector && !buf.empty()) {
    const resilience::ArmedFault af = injector->arm("persist.read");
    if (af.kind == resilience::FaultKind::BitFlipRead) {
      const std::uint64_t bit = af.entropy % (buf.size() * 8);
      buf[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    }
  }
  out = parse_segment(buf, fn);
  if (out.status == SegmentStatus::BadMagic ||
      out.status == SegmentStatus::Corrupt) {
    std::error_code ec;
    fs::rename(path, path + ".quarantine", ec);
    warn_msg(warn, "quarantined " + path + " (" +
                       std::string(to_string(out.status)) +
                       (out.detail.empty() ? "" : ": " + out.detail) + ")" +
                       (ec ? " — quarantine rename failed: " + ec.message()
                           : ""));
  } else if (out.status == SegmentStatus::BadVersion) {
    warn_msg(warn, "refused " + path + " (" + out.detail + ")");
  }
  return out;
}

// ---------------------------------------- cache entry payloads --

std::vector<std::byte> encode_cache_entry(const CacheKey& key,
                                          const sim::TimeBreakdown& value) {
  std::vector<std::byte> out;
  out.reserve(3 * 8 + 5 * 8 + 6 * 4);
  put_u64(out, key.machine);
  put_u64(out, key.signature);
  put_u64(out, key.config);
  put_f64(out, value.compute_s);
  put_f64(out, value.memory_s);
  put_f64(out, value.sync_s);
  put_f64(out, value.atomic_s);
  put_f64(out, value.total_s);
  put_u32(out, static_cast<std::uint32_t>(value.serving));
  put_u32(out, value.vector_path ? 1u : 0u);
  put_u32(out, static_cast<std::uint32_t>(value.note));
  put_u32(out, static_cast<std::uint32_t>(value.note_compiler));
  put_u32(out, static_cast<std::uint32_t>(value.note_mode));
  put_u32(out, value.note_rollback ? 1u : 0u);
  return out;
}

std::optional<std::pair<CacheKey, sim::TimeBreakdown>> decode_cache_entry(
    std::span<const std::byte> payload) {
  Reader r{payload};
  CacheKey key;
  key.machine = r.u64();
  key.signature = r.u64();
  key.config = r.u64();
  sim::TimeBreakdown bd;
  bd.compute_s = r.f64();
  bd.memory_s = r.f64();
  bd.sync_s = r.f64();
  bd.atomic_s = r.f64();
  bd.total_s = r.f64();
  const std::uint32_t serving = r.u32();
  const std::uint32_t vector_path = r.u32();
  const std::uint32_t note = r.u32();
  const std::uint32_t note_compiler = r.u32();
  const std::uint32_t note_mode = r.u32();
  const std::uint32_t note_rollback = r.u32();
  if (!r.ok || serving > static_cast<std::uint32_t>(sim::MemLevel::DRAM) ||
      vector_path > 1 ||
      note > static_cast<std::uint32_t>(compiler::NoteKind::VectorPath) ||
      note_compiler > static_cast<std::uint32_t>(core::CompilerId::Clang) ||
      note_mode > static_cast<std::uint32_t>(core::VectorMode::VLA) ||
      note_rollback > 1 || payload.size() != r.pos) {
    return std::nullopt;
  }
  bd.serving = static_cast<sim::MemLevel>(serving);
  bd.vector_path = vector_path != 0;
  bd.note = static_cast<compiler::NoteKind>(note);
  bd.note_compiler = static_cast<core::CompilerId>(note_compiler);
  bd.note_mode = static_cast<core::VectorMode>(note_mode);
  bd.note_rollback = note_rollback != 0;
  return std::make_pair(key, std::move(bd));
}

// -------------------------------------------------- the store --

PersistentStore::PersistentStore(PersistOptions opt) : opt_(std::move(opt)) {
  std::error_code ec;
  fs::create_directories(opt_.dir, ec);
  if (ec || !fs::is_directory(opt_.dir)) {
    throw std::runtime_error("persist: cannot create directory '" +
                             opt_.dir + "': " + ec.message());
  }
  for (const auto& e : fs::directory_iterator(opt_.dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // Crash debris: a flush that never reached its rename.
      std::error_code ec2;
      fs::remove(e.path(), ec2);
      continue;
    }
    // seg-NNNNNN.sgpc — advance the sequence past every existing
    // segment (quarantined ones included, so names never collide).
    unsigned long long seq = 0;
    if (std::sscanf(name.c_str(), "seg-%6llu.sgpc", &seq) == 1) {
      next_seq_ = std::max<std::uint64_t>(next_seq_, seq + 1);
    }
  }
}

std::string PersistentStore::segment_path(std::uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%06llu.sgpc",
                static_cast<unsigned long long>(seq));
  return opt_.dir + "/" + buf;
}

void PersistentStore::load(const PayloadFn& fn) {
  auto& m = PersistMetrics::get();
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(opt_.dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("seg-", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".sgpc") == 0) {
      names.push_back(e.path().string());
    }
  }
  std::sort(names.begin(), names.end());
  for (const auto& path : names) {
    const SegmentParse p =
        load_segment_file(path, fn, opt_.injector, opt_.warn);
    switch (p.status) {
      case SegmentStatus::Ok:
        ++stats_.segments_loaded;
        stats_.entries_loaded += p.entries;
        m.entries_loaded.add(p.entries);
        break;
      case SegmentStatus::Missing:
        break;  // raced away; nothing to recover
      case SegmentStatus::BadVersion:
        ++stats_.refused_segments;
        m.refused_segments.add();
        break;
      case SegmentStatus::BadMagic:
      case SegmentStatus::Corrupt: {
        ++stats_.quarantined_segments;
        m.quarantined_segments.add();
        const std::uint64_t lost = std::max<std::uint64_t>(
            p.declared_entries, 1);
        stats_.corrupt_entries += lost;
        m.corrupt_entries.add(lost);
        break;
      }
    }
  }
}

bool PersistentStore::append(
    const std::vector<std::vector<std::byte>>& payloads) {
  auto& m = PersistMetrics::get();
  const std::string path = segment_path(next_seq_);
  const int attempts = std::max(1, opt_.retry.max_attempts);
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          opt_.retry.backoff_ms(attempt - 1)));
    }
    if (write_segment_file(path, payloads, opt_.injector, opt_.warn)) {
      ++next_seq_;
      ++stats_.flushes;
      stats_.entries_flushed += payloads.size();
      m.flushes.add();
      m.entries_flushed.add(payloads.size());
      return true;
    }
    ++stats_.flush_failures;
    m.flush_failures.add();
  }
  warn_msg(opt_.warn, "flush of " + std::to_string(payloads.size()) +
                          " entries failed after " +
                          std::to_string(attempts) +
                          " attempts; entries stay queued in memory");
  return false;
}

}  // namespace sgp::engine
