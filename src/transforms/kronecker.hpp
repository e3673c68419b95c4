// Grouped Kronecker products with arbitrary power-of-two block factors.
//
// Section 2.2 of the paper generalises the mutation matrix to
// Q = Q_{G_1} (x) ... (x) Q_{G_g} with Q_{G_i} of size 2^{g_i} x 2^{g_i}
// (groups of mutually dependent positions), and Section 5.2 applies the
// same structure to fitness landscapes.  This module provides the implicit
// matrix and its Theta(N * sum_i 2^{g_i}) mat-vec.
//
// Convention: factors[0] acts on the *least significant* bit group; the
// matrix represented is factors[g-1] (x) ... (x) factors[0], consistent
// with the 2x2 butterfly convention of transforms/butterfly.hpp.
//
// Every grouped product in the library runs apply_blocked_kronecker.  The
// paper's algorithms verbatim — the serial factor-by-factor sweep
// (Algorithm 1's grouped form) and one engine launch per group (Algorithm
// 2's), which compute the same bits — live with the dense materialisation
// in the quasispecies_reference target (reference/kronecker.hpp) as test
// oracles and bench baselines.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/dense_matrix.hpp"
#include "parallel/engine.hpp"
#include "support/bits.hpp"
#include "transforms/blocked_butterfly.hpp"

namespace qs::transforms {

/// Implicit Kronecker product of small square dense factors.
class KroneckerProduct {
 public:
  /// Builds the product from factors (copied). Each factor must be square
  /// with power-of-two dimension >= 2; the represented matrix has dimension
  /// prod_i dim(factor_i).
  explicit KroneckerProduct(std::vector<linalg::DenseMatrix> factors);

  /// Number of factors g.
  std::size_t group_count() const { return factors_.size(); }

  /// The factors, index 0 = least significant bit group.
  const std::vector<linalg::DenseMatrix>& factors() const { return factors_; }

  /// Bit width g_i of group i.
  unsigned group_bits(std::size_t i) const { return group_bits_[i]; }

  /// Total bit width nu = sum_i g_i. May exceed the explicitly indexable
  /// range (factors are stored per group); a product additionally requires
  /// total_bits() <= kMaxChainLength.
  unsigned total_bits() const { return total_bits_; }

  /// Dimension N = 2^nu of the represented matrix.
  /// Requires total_bits() <= kMaxChainLength.
  std::size_t dimension() const {
    require(total_bits_ <= kMaxChainLength,
            "dimension(): total width too large to index explicitly");
    return std::size_t{1} << total_bits_;
  }

  /// Maximum column-sum deviation from 1 across all factors (validity check
  /// for mutation models: the Kronecker product of column-stochastic factors
  /// is column stochastic).
  double stochastic_deviation() const;

 private:
  std::vector<linalg::DenseMatrix> factors_;
  std::vector<unsigned> group_bits_;
  unsigned total_bits_ = 0;
};

/// Engine-parallel cache-blocked grouped Kronecker product on an interleaved
/// panel of width m (m = 1 is the plain vector case): every column j of the
/// panel becomes K column_j.
///
/// The banding mirrors transforms/blocked_butterfly: consecutive groups are
/// packed into level *bands* that never split a group, and the panel is
/// swept (and the engine barriered) once per band instead of once per group
/// — the low band runs whole tiles in place, high bands own gather panels of
/// 2^chunk-row contiguous bursts.  A group wider than the tile budget forms
/// a band of its own (correct, with gracefully degraded locality).  Requires
/// panel.size() == kp.dimension() * m.
void apply_blocked_kronecker(std::span<double> panel, std::size_t m,
                             const KroneckerProduct& kp,
                             const parallel::Engine& engine,
                             const BlockedPlan& plan = {});

}  // namespace qs::transforms
