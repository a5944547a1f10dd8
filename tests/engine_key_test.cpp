// Machine fingerprints: every model-relevant field of a machine
// descriptor must feed the fingerprint, so two machines differing in
// any single field never share the engine's Simulator. Also:
// serializing a machine and parsing it back must not change its
// fingerprint (content-addressing is stable across the INI round trip).
// Every bit of every fixed-width field feeds it too (the one exception:
// the sign of a 0.0, normalised).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/fingerprint.hpp"
#include "machine/serialize.hpp"

namespace sgp::engine {
namespace {

using machine::MachineDescriptor;

struct Mutation {
  const char* what;
  std::function<void(MachineDescriptor&)> apply;
};

const std::vector<Mutation>& machine_mutations() {
  static const std::vector<Mutation> muts = {
      {"name", [](auto& m) { m.name += "-b"; }},
      {"clock_ghz", [](auto& m) { m.core.clock_ghz += 1e-7; }},
      {"decode_width", [](auto& m) { m.core.decode_width += 1; }},
      {"issue_width", [](auto& m) { m.core.issue_width += 1; }},
      {"out_of_order",
       [](auto& m) { m.core.out_of_order = !m.core.out_of_order; }},
      {"fp_pipes", [](auto& m) { m.core.fp_pipes += 1; }},
      {"fma", [](auto& m) { m.core.fma = !m.core.fma; }},
      {"mem_ports", [](auto& m) { m.core.mem_ports += 1; }},
      {"scalar_eff", [](auto& m) { m.core.scalar_eff += 1e-7; }},
      {"stream_bw_gbs", [](auto& m) { m.core.stream_bw_gbs += 1e-7; }},
      {"scalar_stream_derate",
       [](auto& m) { m.core.scalar_stream_derate -= 1e-7; }},
      {"vector.isa", [](auto& m) { m.core.vector->isa += "x"; }},
      {"vector.width_bits",
       [](auto& m) { m.core.vector->width_bits *= 2; }},
      {"vector.fp32", [](auto& m) { m.core.vector->fp32 = false; }},
      {"vector.fp64",
       [](auto& m) { m.core.vector->fp64 = !m.core.vector->fp64; }},
      {"vector.efficiency_fp32",
       [](auto& m) { m.core.vector->efficiency_fp32 += 1e-7; }},
      {"vector.efficiency_fp64",
       [](auto& m) { m.core.vector->efficiency_fp64 += 1e-7; }},
      {"vector removed", [](auto& m) { m.core.vector.reset(); }},
      // One byte inside the same KiB: invisible to the INI text (it
      // prints sizes at KiB granularity), so this is the case the
      // bit-exact field encoding exists for.
      {"l1d.size_bytes +1", [](auto& m) { m.l1d.size_bytes += 1; }},
      {"l1d.size_bytes +1KiB", [](auto& m) { m.l1d.size_bytes += 1024; }},
      {"l1d.line_bytes", [](auto& m) { m.l1d.line_bytes *= 2; }},
      {"l1d.shared_by", [](auto& m) { m.l1d.shared_by += 1; }},
      {"l1d.bw", [](auto& m) { m.l1d.bw_bytes_per_cycle += 1e-7; }},
      {"l1d.latency", [](auto& m) { m.l1d.latency_cycles += 1e-7; }},
      {"l2.size_bytes +1", [](auto& m) { m.l2.size_bytes += 1; }},
      {"l3.size_bytes +1", [](auto& m) { m.l3.size_bytes += 1; }},
      {"numa[0].mem_bw_gbs", [](auto& m) { m.numa[0].mem_bw_gbs += 1e-7; }},
      {"numa[0].controllers", [](auto& m) { m.numa[0].controllers += 1; }},
      {"numa[0].cores",
       [](auto& m) { std::swap(m.numa[0].cores, m.numa[1].cores); }},
      {"clusters",
       [](auto& m) { std::swap(m.clusters[0], m.clusters[1]); }},
      {"mem_latency_ns", [](auto& m) { m.mem_latency_ns += 1e-7; }},
      {"cluster_bw_gbs", [](auto& m) { m.cluster_bw_gbs += 1e-7; }},
      {"remote_numa_penalty",
       [](auto& m) { m.remote_numa_penalty += 1e-7; }},
      {"fork_join_us", [](auto& m) { m.fork_join_us += 1e-7; }},
      {"barrier_us_per_thread",
       [](auto& m) { m.barrier_us_per_thread += 1e-7; }},
      {"numa_span_sync_factor",
       [](auto& m) { m.numa_span_sync_factor += 1e-7; }},
      {"oversubscribe_gamma",
       [](auto& m) { m.oversubscribe_gamma += 1e-7; }},
      {"oversubscribe_knee",
       [](auto& m) { m.oversubscribe_knee += 1.0; }},
      {"l3_memory_side",
       [](auto& m) { m.l3_memory_side = !m.l3_memory_side; }},
      {"memory_derating", [](auto& m) { m.memory_derating += 1e-7; }},
      {"atomic_rtt_ns", [](auto& m) { m.atomic_rtt_ns += 1e-7; }},
  };
  return muts;
}

TEST(MachineFingerprint, EverySingleFieldMutationChangesIt) {
  const auto base = machine::sg2042();
  const auto base_fp = machine_fingerprint(base);
  std::set<std::uint64_t> seen{base_fp};
  for (const auto& mut : machine_mutations()) {
    auto m = base;
    mut.apply(m);
    const auto fp = machine_fingerprint(m);
    EXPECT_NE(fp, base_fp) << mut.what;
    // Pairwise distinct too: no two mutations may collide.
    EXPECT_TRUE(seen.insert(fp).second) << mut.what;
  }
}

TEST(MachineFingerprint, DeterministicAcrossCopies) {
  const auto a = machine::sg2042();
  const auto b = a;
  EXPECT_EQ(machine_fingerprint(a), machine_fingerprint(b));
}

TEST(MachineFingerprint, StableAcrossSerializeRoundTrip) {
  auto machines = machine::all_machines();
  machines.push_back(machine::allwinner_d1());
  for (const auto& m : machines) {
    const auto parsed = machine::from_ini(machine::to_ini(m));
    EXPECT_EQ(machine_fingerprint(parsed), machine_fingerprint(m))
        << m.name;
  }
}

TEST(MachineFingerprint, PaperMachinesAllDistinct) {
  std::set<std::uint64_t> seen;
  auto machines = machine::all_machines();
  machines.push_back(machine::allwinner_d1());
  for (const auto& m : machines) {
    EXPECT_TRUE(seen.insert(machine_fingerprint(m)).second) << m.name;
  }
}

// --------------------------------------- every bit of every field --

template <std::size_t N>
using Bits = std::conditional_t<
    N == 1, std::uint8_t,
    std::conditional_t<N == 4, std::uint32_t, std::uint64_t>>;

/// Flips each bit of `field` (a member of `obj`) in turn, expects
/// `fp(obj)` to move off its unflipped value every time, and restores
/// the field. A bool is flipped as a value (its other bits are not
/// valid bools). Returns the number of flips checked.
template <typename Obj, typename T, typename Fp>
int expect_every_bit_flip_changes(Obj& obj, T& field, const Fp& fp,
                                  const std::string& what) {
  const auto base_fp = fp(obj);
  if constexpr (std::is_same_v<T, bool>) {
    field = !field;
    EXPECT_NE(fp(obj), base_fp) << what;
    field = !field;
    return 1;
  } else {
    using U = Bits<sizeof(T)>;
    static_assert(sizeof(U) == sizeof(T));
    const T orig = field;
    int flips = 0;
    for (std::size_t b = 0; b < 8 * sizeof(T); ++b) {
      if constexpr (std::is_floating_point_v<T>) {
        // -0.0 == 0.0: both hash as +0.0 by design.
        if (orig == 0.0 && b == 8 * sizeof(T) - 1) continue;
      }
      field = std::bit_cast<T>(
          static_cast<U>(std::bit_cast<U>(orig) ^ (U{1} << b)));
      EXPECT_NE(fp(obj), base_fp) << what << " bit " << b;
      ++flips;
    }
    field = orig;
    return flips;
  }
}

#define SGP_FLIP(field) flips += expect_every_bit_flip_changes(obj, field, fp, #field)

TEST(MachineFingerprint, EveryBitOfEveryFixedWidthFieldChangesIt) {
  auto obj = machine::sg2042();
  const auto fp = [](const MachineDescriptor& m) {
    return machine_fingerprint(m);
  };
  int flips = 0;
  SGP_FLIP(obj.num_cores);
  SGP_FLIP(obj.core.clock_ghz);
  SGP_FLIP(obj.core.decode_width);
  SGP_FLIP(obj.core.issue_width);
  SGP_FLIP(obj.core.out_of_order);
  SGP_FLIP(obj.core.fp_pipes);
  SGP_FLIP(obj.core.fma);
  SGP_FLIP(obj.core.mem_ports);
  SGP_FLIP(obj.core.scalar_eff);
  SGP_FLIP(obj.core.stream_bw_gbs);
  SGP_FLIP(obj.core.scalar_stream_derate);
  ASSERT_TRUE(obj.core.vector.has_value());
  SGP_FLIP(obj.core.vector->width_bits);
  SGP_FLIP(obj.core.vector->fp32);
  SGP_FLIP(obj.core.vector->fp64);
  SGP_FLIP(obj.core.vector->efficiency_fp32);
  SGP_FLIP(obj.core.vector->efficiency_fp64);
  for (auto* c : {&obj.l1d, &obj.l2, &obj.l3}) {
    SGP_FLIP(c->size_bytes);
    SGP_FLIP(c->line_bytes);
    SGP_FLIP(c->shared_by);
    SGP_FLIP(c->bw_bytes_per_cycle);
    SGP_FLIP(c->latency_cycles);
  }
  for (auto& r : obj.numa) {
    for (int& id : r.cores) SGP_FLIP(id);
    SGP_FLIP(r.controllers);
    SGP_FLIP(r.mem_bw_gbs);
  }
  for (auto& cl : obj.clusters) {
    for (int& id : cl) SGP_FLIP(id);
  }
  SGP_FLIP(obj.mem_latency_ns);
  SGP_FLIP(obj.cluster_bw_gbs);
  SGP_FLIP(obj.remote_numa_penalty);
  SGP_FLIP(obj.fork_join_us);
  SGP_FLIP(obj.barrier_us_per_thread);
  SGP_FLIP(obj.numa_span_sync_factor);
  SGP_FLIP(obj.oversubscribe_gamma);
  SGP_FLIP(obj.oversubscribe_knee);
  SGP_FLIP(obj.l3_memory_side);
  SGP_FLIP(obj.memory_derating);
  SGP_FLIP(obj.atomic_rtt_ns);
  // 64 core ids in NUMA regions and 64 in clusters, 32 bits each,
  // dominate the count; the scalar fields add over a thousand more.
  EXPECT_GT(flips, 2 * 64 * 32 + 1000);
}

#undef SGP_FLIP

}  // namespace
}  // namespace sgp::engine
