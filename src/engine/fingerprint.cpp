#include "engine/fingerprint.hpp"

#include <bit>
#include <functional>
#include <span>
#include <vector>

#include "kernels/register_all.hpp"

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

std::uint64_t signature_fingerprint(const core::KernelSignature& sig) {
  Fnv1a h;
  h.str(sig.name);
  h.i32(static_cast<int>(sig.group));
  h.f64(sig.iters_per_rep);
  h.f64(sig.reps);
  h.f64(sig.parallel_regions_per_rep);
  h.f64(sig.seq_fraction);
  h.f64(sig.mix.fadd);
  h.f64(sig.mix.fmul);
  h.f64(sig.mix.ffma);
  h.f64(sig.mix.fdiv);
  h.f64(sig.mix.fspecial);
  h.f64(sig.mix.fcmp);
  h.f64(sig.mix.iops);
  h.f64(sig.mix.loads);
  h.f64(sig.mix.stores);
  h.f64(sig.mix.branches);
  h.f64(sig.streamed_reads_per_iter);
  h.f64(sig.streamed_writes_per_iter);
  h.f64(sig.working_set_elems);
  h.i32(static_cast<int>(sig.pattern));
  for (const auto* f : {&sig.gcc, &sig.clang}) {
    h.flag(f->vectorizes);
    h.flag(f->runtime_vector_path);
    h.f64(f->efficiency);
    h.f64(f->memory_efficiency);
  }
  h.flag(sig.integer_dominated);
  h.flag(sig.atomic);
  h.flag(sig.recurrence);
  return h.digest();
}

std::uint64_t table_signature_fingerprint(const core::KernelSignature& sig) {
  struct Table {
    std::span<const core::KernelSignature> sigs;
    std::vector<std::uint64_t> fps;  ///< aligned with sigs
  };
  static const Table table = [] {
    Table t{kernels::all_signatures(), {}};
    t.fps.reserve(t.sigs.size());
    for (const auto& s : t.sigs) t.fps.push_back(signature_fingerprint(s));
    return t;
  }();
  // std::less orders unrelated pointers too.
  const std::less<const core::KernelSignature*> before;
  if (!before(&sig, table.sigs.data()) &&
      before(&sig, table.sigs.data() + table.sigs.size())) {
    return table.fps[static_cast<std::size_t>(&sig - table.sigs.data())];
  }
  return signature_fingerprint(sig);
}

std::uint64_t config_fingerprint(const sim::SimConfig& cfg) {
  Fnv1a h;
  h.i32(static_cast<int>(cfg.precision));
  h.i32(static_cast<int>(cfg.compiler));
  h.i32(static_cast<int>(cfg.vector_mode));
  h.i32(cfg.nthreads);
  h.i32(static_cast<int>(cfg.placement));
  return h.digest();
}

}  // namespace sgp::engine
