// The eigenproblem formulations and the abstract mat-vec interface.
//
// The quasispecies eigenproblem has three mathematically equivalent
// formulations (Eqs. (3)-(5) of the paper) whose solutions are related by
// diagonal scalings:
//
//   right:      Q F x_R = lambda x_R
//   symmetric:  F^{1/2} Q F^{1/2} x_S = lambda x_S   (requires Q symmetric)
//   left:       F Q x_L = lambda x_L
//
//   x_R = F^{-1/2} x_S,   x_S = F^{-1/2} x_L,   x_R = F^{-1} x_L.
//
// Every eigensolver in src/solvers operates on the LinearOperator interface
// below, so the power iteration is oblivious to whether the product is the
// dense baseline, the sparsified Xmvp, or the fast Fmmp.
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "core/landscape.hpp"
#include "support/bits.hpp"

namespace qs::transforms {
class BandStep;
}  // namespace qs::transforms

namespace qs::core {

/// Which of Eqs. (3)-(5) the operator represents.
enum class Formulation {
  right,      ///< W = Q * F     (Eq. (3); concentrations directly)
  symmetric,  ///< W = F^{1/2} Q F^{1/2}  (Eq. (4); symmetric eigenproblem)
  left,       ///< W = F * Q     (Eq. (5))
};

/// The range [min, max] of the landscape a product multiplies by.  With Q
/// column-stochastic, W = Q F (in any formulation) maps a nonnegative x to
/// a vector whose 1-norm lies in [min, max] * ||x||_1.
struct FitnessRange {
  double min;
  double max;
};

/// Abstract mat-vec y = W x.  Implementations are not required to be
/// re-entrant: a single operator instance must not be applied concurrently
/// from multiple threads (internal scratch buffers may be reused).
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  /// Problem dimension N.
  virtual seq_t dimension() const = 0;

  /// y = W x. Requires x.size() == y.size() == dimension() and that x and y
  /// do not alias.
  virtual void apply(std::span<const double> x, std::span<double> y) const = 0;

  /// y = W x with `step`'s epilogue on the product's last band
  /// (transforms::BandStep), bit-identical to apply.  Returns false, having
  /// done nothing, when the product has no such band: the default, kept by
  /// every operator but the banded Fmmp of a 2x2-factor model.
  virtual bool apply_step(std::span<const double> /*x*/, std::span<double> /*y*/,
                          transforms::BandStep& /*step*/) const {
    return false;
  }

  /// Identifier for logs and bench output, e.g. "Fmmp" or "Xmvp(5)".
  virtual std::string_view name() const = 0;

  /// The fitness range bounding one product's growth of a nonnegative
  /// iterate, when the operator knows it: the power iteration then leaves
  /// its iterate unnormalised between residual checks.  Empty by default.
  virtual std::optional<FitnessRange> fitness_range() const { return std::nullopt; }
};

/// Converts an eigenvector between formulations in place, then re-normalises
/// to unit 1-norm (concentration scale).  `landscape` must be the landscape
/// the operator was built with.
void convert_eigenvector(Formulation from, Formulation to, const Landscape& landscape,
                         std::span<double> x);

}  // namespace qs::core
