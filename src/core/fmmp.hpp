// Fmmp — the fast mutation matrix product (Section 2.1 of the paper).
//
// The primary contribution of the paper: W x is computed implicitly in
// Theta(N log2 N) time and Theta(1) extra space by scaling with the diagonal
// fitness landscape and running the Kronecker butterfly of the mutation
// matrix, without ever forming an entry of W.  Works for every MutationModel
// kind (uniform, per-site, grouped) and all three problem formulations.
//
// The optional execution engine selects the paper's Algorithm 2 (kernel
// launch per butterfly level with the GPU index mapping); without an engine
// the serial Algorithm 1 runs, in either level order (Eq. (9) vs Eq. (10)).
#pragma once

#include <vector>

#include "core/mutation_model.hpp"
#include "core/operators.hpp"
#include "parallel/engine.hpp"

namespace qs::core {

/// Which kernel the engine path of FmmpOperator runs for 2x2 mutation kinds.
enum class EngineKernel {
  blocked,    ///< banded cache-blocked butterfly with fused F-scalings
  per_level,  ///< the paper's literal Algorithm 2: one launch per level
};

/// Implicit fast product with W in the chosen formulation.
class FmmpOperator final : public LinearOperator {
 public:
  /// Builds the operator.  `model` is copied (it is small); `landscape` is
  /// referenced and must outlive the operator.  The symmetric formulation
  /// requires a symmetric mutation model.  `engine`, when non-null, must
  /// also outlive the operator and selects the parallel path; `kernel`
  /// picks between the banded kernel (default, diagonal scalings fused into
  /// the first/last band) and the per-level reference; `plan` tunes the
  /// banded kernel's tiling (see transforms::autotune_blocked_plan).
  FmmpOperator(MutationModel model, const Landscape& landscape,
               Formulation formulation = Formulation::right,
               const parallel::Engine* engine = nullptr,
               transforms::LevelOrder order = transforms::LevelOrder::ascending,
               EngineKernel kernel = EngineKernel::blocked,
               transforms::BlockedPlan plan = {});

  seq_t dimension() const override { return model_.dimension(); }
  void apply(std::span<const double> x, std::span<double> y) const override;
  std::string_view name() const override { return "Fmmp"; }

  /// Panel product Y <- W X on an interleaved panel of m vectors
  /// (x[i*m + j] = element i of column j); every column of y becomes
  /// W column of x.  All columns see the same landscape (the scalings are
  /// broadcast across the panel).  Runs the banded panel kernels through the
  /// configured engine (serial engine when none was given); the per-level
  /// reference kernel has no panel form, so EngineKernel::per_level falls
  /// back to the banded panel path too.  m == 1 runs the single-vector
  /// banded kernel (bit-identical to apply); panels wider than 8 sweep at
  /// full width (bit-identical per column to the m <= 8 path).  x may
  /// alias y exactly or not at all.  Requires
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
  transforms::LevelOrder order_;
  EngineKernel kernel_;
  transforms::BlockedPlan plan_;
  std::vector<double> sqrt_f_;  // cached for the symmetric formulation
};

}  // namespace qs::core
