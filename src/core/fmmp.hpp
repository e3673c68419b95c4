// Fmmp — the fast mutation matrix product (Section 2.1 of the paper).
//
// The primary contribution of the paper: W x is computed implicitly in
// Theta(N log2 N) time and Theta(1) extra space by scaling with the diagonal
// fitness landscape and running the Kronecker butterfly of the mutation
// matrix, without ever forming an entry of W.  Works for every MutationModel
// kind (uniform, per-site, grouped) and all three problem formulations.
//
// Every product runs the banded kernel of transforms/blocked_butterfly (or
// the group-banded Kronecker kernel for grouped models) on the given engine,
// the serial engine when none is given.  The paper's Algorithms 1 and 2
// (transforms/butterfly, transforms/kronecker) are bit-identical references
// that only tests and benches run.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/mutation_model.hpp"
#include "core/operators.hpp"
#include "parallel/engine.hpp"

namespace qs::core {

/// Implicit fast product with W in the chosen formulation.
class FmmpOperator final : public LinearOperator {
 public:
  /// Builds the operator.  `model` is copied (it is small); `landscape` is
  /// referenced and must outlive the operator.  The symmetric formulation
  /// requires a symmetric mutation model.  `engine`, when non-null, must
  /// also outlive the operator and runs the banded kernel's band sweeps
  /// (null means the serial engine); `plan` tunes the banded kernel's tiling
  /// (see transforms::autotune_blocked_plan).
  FmmpOperator(MutationModel model, const Landscape& landscape,
               Formulation formulation = Formulation::right,
               const parallel::Engine* engine = nullptr,
               transforms::BlockedPlan plan = {});

  seq_t dimension() const override { return model_.dimension(); }

  /// y <- W x: apply_panel with m = 1.  Requires x.size() == y.size() ==
  /// dimension() and x, y not aliased.
  void apply(std::span<const double> x, std::span<double> y) const override;
  /// apply with `step` on the banded kernel's last band; false for the
  /// grouped kind, whose Kronecker kernel has no step.
  bool apply_step(std::span<const double> x, std::span<double> y,
                  transforms::BandStep& step) const override;
  std::string_view name() const override { return "Fmmp"; }
  std::optional<FitnessRange> fitness_range() const override {
    return FitnessRange{landscape_->min_fitness(), landscape_->max_fitness()};
  }

  /// Panel product Y <- W X on an interleaved panel of m vectors
  /// (x[i*m + j] = element i of column j); every column of y becomes
  /// W column of x.  All columns see the same landscape (the scalings are
  /// broadcast across the panel).  Runs the banded panel kernels through the
  /// configured engine (serial engine when none was given), the diagonal
  /// scalings fused into the first/last band for 2x2 kinds.  m == 1 runs the
  /// single-vector banded kernel; panels wider than 8 sweep at full width
  /// (bit-identical per column to the m <= 8 path).  x may alias y exactly
  /// or not at all.  Requires
  /// x.size() == y.size() == dimension() * m.
  void apply_panel(std::span<const double> x, std::span<double> y,
                   std::size_t m) const;

  const MutationModel& model() const { return model_; }
  const Landscape& landscape() const { return *landscape_; }
  Formulation formulation() const { return formulation_; }
  const transforms::BlockedPlan& plan() const { return plan_; }

 private:
  MutationModel model_;
  const Landscape* landscape_;
  Formulation formulation_;
  const parallel::Engine* engine_;
  /// The formulation's diagonal scalings: pre = F (right), F^{1/2}
  /// (symmetric) or none; post = F (left), F^{1/2} (symmetric) or none.
  std::pair<std::span<const double>, std::span<const double>> scalings() const;

  transforms::BlockedPlan plan_;
  std::vector<double> sqrt_f_;  // cached for the symmetric formulation
};

}  // namespace qs::core
