#include "engine/fingerprint.hpp"

#include <bit>

namespace sgp::engine {

void Fnv1a::bytes(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;  // FNV prime
  }
}

void Fnv1a::f64(double v) noexcept {
  // +0.0 and -0.0 compare equal but differ in bits; normalise so two
  // descriptors that behave identically fingerprint identically.
  if (v == 0.0) v = 0.0;
  u64(std::bit_cast<std::uint64_t>(v));
}

namespace {

void hash_cache(Fnv1a& h, const machine::CacheSpec& c) {
  h.u64(c.size_bytes);
  h.i32(c.line_bytes);
  h.i32(c.shared_by);
  h.f64(c.bw_bytes_per_cycle);
  h.f64(c.latency_cycles);
}

}  // namespace

std::uint64_t machine_fingerprint(const machine::MachineDescriptor& m) {
  Fnv1a h;
  // Every field, bit-exactly.
  h.str(m.name);
  h.i32(m.num_cores);
  const auto& c = m.core;
  h.f64(c.clock_ghz);
  h.i32(c.decode_width);
  h.i32(c.issue_width);
  h.flag(c.out_of_order);
  h.i32(c.fp_pipes);
  h.flag(c.fma);
  h.i32(c.mem_ports);
  h.f64(c.scalar_eff);
  h.f64(c.stream_bw_gbs);
  h.f64(c.scalar_stream_derate);
  h.flag(c.vector.has_value());
  if (c.vector) {
    h.str(c.vector->isa);
    h.i32(c.vector->width_bits);
    h.flag(c.vector->fp32);
    h.flag(c.vector->fp64);
    h.f64(c.vector->efficiency_fp32);
    h.f64(c.vector->efficiency_fp64);
  }
  hash_cache(h, m.l1d);
  hash_cache(h, m.l2);
  hash_cache(h, m.l3);
  h.u64(m.numa.size());
  for (const auto& r : m.numa) {
    h.u64(r.cores.size());
    for (const int id : r.cores) h.i32(id);
    h.i32(r.controllers);
    h.f64(r.mem_bw_gbs);
  }
  h.u64(m.clusters.size());
  for (const auto& cl : m.clusters) {
    h.u64(cl.size());
    for (const int id : cl) h.i32(id);
  }
  h.f64(m.mem_latency_ns);
  h.f64(m.cluster_bw_gbs);
  h.f64(m.remote_numa_penalty);
  h.f64(m.fork_join_us);
  h.f64(m.barrier_us_per_thread);
  h.f64(m.numa_span_sync_factor);
  h.f64(m.oversubscribe_gamma);
  h.f64(m.oversubscribe_knee);
  h.flag(m.l3_memory_side);
  h.f64(m.memory_derating);
  h.f64(m.atomic_rtt_ns);
  return h.digest();
}

}  // namespace sgp::engine
