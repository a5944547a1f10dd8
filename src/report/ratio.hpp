// The paper's "times faster / times slower" axis encoding, plus speedup
// and parallel-efficiency definitions.
#pragma once

#include <stdexcept>

namespace sgp::report {

/// The paper's figure encoding: 0 = same performance, +1 = twice as
/// fast, -1 = twice as slow. For a time-ratio expressed as
/// `ratio = t_baseline / t_subject` (>1 means the subject is faster):
///   encode(2.0) = +1,  encode(1.0) = 0,  encode(0.5) = -1.
inline double encode_ratio(double ratio) {
  if (ratio <= 0.0) throw std::invalid_argument("encode_ratio: ratio <= 0");
  return ratio >= 1.0 ? ratio - 1.0 : -(1.0 / ratio - 1.0);
}

/// Speed up: execution time on one thread over execution on n threads.
inline double speedup(double t1, double tn) {
  if (t1 <= 0.0 || tn <= 0.0) throw std::invalid_argument("speedup: t <= 0");
  return t1 / tn;
}

/// Parallel efficiency: speedup over thread count (1 = optimal).
inline double parallel_efficiency(double speedup_value, int nthreads) {
  if (nthreads < 1) {
    throw std::invalid_argument("parallel_efficiency: nthreads < 1");
  }
  return speedup_value / nthreads;
}

}  // namespace sgp::report
