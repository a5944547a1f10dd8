#include "kernels/register_all.hpp"

#include "core/types.hpp"
#include "kernels/algorithm/algorithm.hpp"
#include "kernels/apps/apps.hpp"
#include "kernels/basic/basic.hpp"
#include "kernels/lcals/lcals.hpp"
#include "kernels/polybench/polybench.hpp"
#include "kernels/stream/stream.hpp"

namespace sgp::kernels {

void register_all(core::Registry& reg) {
  using core::Group;

  // Algorithm (6)
  reg.add("MEMCPY", Group::Algorithm, algorithm::make_memcpy);
  reg.add("MEMSET", Group::Algorithm, algorithm::make_memset);
  reg.add("REDUCE_SUM", Group::Algorithm, algorithm::make_reduce_sum);
  reg.add("SCAN", Group::Algorithm, algorithm::make_scan);
  reg.add("SORT", Group::Algorithm, algorithm::make_sort);
  reg.add("SORTPAIRS", Group::Algorithm, algorithm::make_sortpairs);

  // Apps (13)
  reg.add("CONVECTION3DPA", Group::Apps, apps::make_convection3dpa);
  reg.add("DEL_DOT_VEC_2D", Group::Apps, apps::make_del_dot_vec_2d);
  reg.add("DIFFUSION3DPA", Group::Apps, apps::make_diffusion3dpa);
  reg.add("ENERGY", Group::Apps, apps::make_energy);
  reg.add("FIR", Group::Apps, apps::make_fir);
  reg.add("HALO_PACKING", Group::Apps, apps::make_halo_packing);
  reg.add("HALO_UNPACKING", Group::Apps, apps::make_halo_unpacking);
  reg.add("LTIMES", Group::Apps, apps::make_ltimes);
  reg.add("LTIMES_NOVIEW", Group::Apps, apps::make_ltimes_noview);
  reg.add("MASS3DPA", Group::Apps, apps::make_mass3dpa);
  reg.add("NODAL_ACCUMULATION_3D", Group::Apps,
          apps::make_nodal_accumulation_3d);
  reg.add("PRESSURE", Group::Apps, apps::make_pressure);
  reg.add("VOL3D", Group::Apps, apps::make_vol3d);

  // Basic (16)
  reg.add("DAXPY", Group::Basic, basic::make_daxpy);
  reg.add("DAXPY_ATOMIC", Group::Basic, basic::make_daxpy_atomic);
  reg.add("IF_QUAD", Group::Basic, basic::make_if_quad);
  reg.add("INDEXLIST", Group::Basic, basic::make_indexlist);
  reg.add("INDEXLIST_3LOOP", Group::Basic, basic::make_indexlist_3loop);
  reg.add("INIT3", Group::Basic, basic::make_init3);
  reg.add("INIT_VIEW1D", Group::Basic, basic::make_init_view1d);
  reg.add("INIT_VIEW1D_OFFSET", Group::Basic,
          basic::make_init_view1d_offset);
  reg.add("MAT_MAT_SHARED", Group::Basic, basic::make_mat_mat_shared);
  reg.add("MULADDSUB", Group::Basic, basic::make_muladdsub);
  reg.add("NESTED_INIT", Group::Basic, basic::make_nested_init);
  reg.add("PI_ATOMIC", Group::Basic, basic::make_pi_atomic);
  reg.add("PI_REDUCE", Group::Basic, basic::make_pi_reduce);
  reg.add("REDUCE3_INT", Group::Basic, basic::make_reduce3_int);
  reg.add("REDUCE_STRUCT", Group::Basic, basic::make_reduce_struct);
  reg.add("TRAP_INT", Group::Basic, basic::make_trap_int);

  // Lcals (11)
  reg.add("DIFF_PREDICT", Group::Lcals, lcals::make_diff_predict);
  reg.add("EOS", Group::Lcals, lcals::make_eos);
  reg.add("FIRST_DIFF", Group::Lcals, lcals::make_first_diff);
  reg.add("FIRST_MIN", Group::Lcals, lcals::make_first_min);
  reg.add("FIRST_SUM", Group::Lcals, lcals::make_first_sum);
  reg.add("GEN_LIN_RECUR", Group::Lcals, lcals::make_gen_lin_recur);
  reg.add("HYDRO_1D", Group::Lcals, lcals::make_hydro_1d);
  reg.add("HYDRO_2D", Group::Lcals, lcals::make_hydro_2d);
  reg.add("INT_PREDICT", Group::Lcals, lcals::make_int_predict);
  reg.add("PLANCKIAN", Group::Lcals, lcals::make_planckian);
  reg.add("TRIDIAG_ELIM", Group::Lcals, lcals::make_tridiag_elim);

  // Polybench (13)
  reg.add("2MM", Group::Polybench, polybench::make_2mm);
  reg.add("3MM", Group::Polybench, polybench::make_3mm);
  reg.add("ADI", Group::Polybench, polybench::make_adi);
  reg.add("ATAX", Group::Polybench, polybench::make_atax);
  reg.add("FDTD_2D", Group::Polybench, polybench::make_fdtd_2d);
  reg.add("FLOYD_WARSHALL", Group::Polybench,
          polybench::make_floyd_warshall);
  reg.add("GEMM", Group::Polybench, polybench::make_gemm);
  reg.add("GEMVER", Group::Polybench, polybench::make_gemver);
  reg.add("GESUMMV", Group::Polybench, polybench::make_gesummv);
  reg.add("HEAT_3D", Group::Polybench, polybench::make_heat_3d);
  reg.add("JACOBI_1D", Group::Polybench, polybench::make_jacobi_1d);
  reg.add("JACOBI_2D", Group::Polybench, polybench::make_jacobi_2d);
  reg.add("MVT", Group::Polybench, polybench::make_mvt);

  // Stream (5)
  reg.add("ADD", Group::Stream, stream::make_add);
  reg.add("COPY", Group::Stream, stream::make_copy);
  reg.add("DOT", Group::Stream, stream::make_dot);
  reg.add("MUL", Group::Stream, stream::make_mul);
  reg.add("TRIAD", Group::Stream, stream::make_triad);
}

core::Registry make_registry() {
  core::Registry reg;
  register_all(reg);
  return reg;
}

const std::vector<core::KernelSignature>& all_signatures() {
  static const std::vector<core::KernelSignature> sigs = [] {
    const core::Registry reg = make_registry();
    std::vector<core::KernelSignature> out;
    for (const auto& name : reg.names()) {
      out.push_back(reg.create(name)->signature());
    }
    return out;
  }();
  return sigs;
}

const core::KernelSignature* find_signature(std::string_view name) {
  for (const auto& sig : all_signatures()) {
    if (sig.name == name) return &sig;
  }
  return nullptr;
}

}  // namespace sgp::kernels
