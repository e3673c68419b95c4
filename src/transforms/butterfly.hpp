// The 2x2 site factor of the Kronecker-structured mutation matrix.
//
// Every mutation matrix of the form Q = M_{nu-1} (x) ... (x) M_0 with 2x2
// factors (uniform error rate, per-site error rates, asymmetric 0->1 / 1->0
// rates) acts on a vector through nu butterfly levels: the level of stride
// 2^k applies the factor M_k across bit k of the sequence index.  This is
// the structural heart of the paper's Fmmp (Section 2.1) in its full
// per-site generality (Section 2.2).
//
// Every product in the library runs the banded kernel of
// transforms/blocked_butterfly.  The paper's Algorithm 1 and Algorithm 2,
// which compute the same bits level by level, live in the
// quasispecies_reference target (reference/butterfly.hpp) as test oracles
// and bench baselines.
#pragma once

#include <algorithm>
#include <cmath>

namespace qs::transforms {

/// A 2x2 real matrix [[m00, m01], [m10, m11]] acting on one sequence
/// position: entry (r, c) is the probability that the position reads r after
/// mutation given it was c before (column-stochastic for valid models).
struct Factor2 {
  double m00 = 1.0;
  double m01 = 0.0;
  double m10 = 0.0;
  double m11 = 1.0;

  /// The symmetric uniform-error-rate factor [[1-p, p], [p, 1-p]].
  static constexpr Factor2 uniform(double p) { return {1.0 - p, p, p, 1.0 - p}; }

  /// General single-site process from the two flip probabilities:
  /// p01 = P(0 -> 1), p10 = P(1 -> 0). Column stochastic by construction.
  static constexpr Factor2 asymmetric(double p01, double p10) {
    return {1.0 - p01, p10, p01, 1.0 - p10};
  }

  /// Maximum column-sum deviation from 1.
  double stochastic_deviation() const {
    return std::max(std::abs(m00 + m10 - 1.0), std::abs(m01 + m11 - 1.0));
  }

  /// Transposed factor.
  constexpr Factor2 transposed() const { return {m00, m10, m01, m11}; }
};

}  // namespace qs::transforms
