// Implicit mutation matrices Q.
//
// A MutationModel describes Q without storing any of its N^2 entries, in one
// of three increasingly general Kronecker forms from the paper:
//
//   uniform   — Eq. (2)/(7): Q = (x)_{k} [[1-p, p], [p, 1-p]], one error
//               rate p for all positions (the classic quasispecies model);
//   per-site  — Section 2.2: Q = (x)_{k} M_k with arbitrary column-
//               stochastic 2x2 factors (position-dependent / asymmetric
//               rates);
//   grouped   — Eq. (11): Q = (x)_{i} Q_{G_i} with column-stochastic blocks
//               of size 2^{g_i} (dependent mutations within groups).
//
// All three expose the same implicit Theta(N log N)-ish mat-vec (the banded
// kernels of transforms/blocked_butterfly and transforms/kronecker) plus
// entrywise access for baselines and tests.
//
// Bit convention: bit k of a sequence index is position k; factors are
// indexed by position, factor 0 acting on the least significant bit.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "parallel/engine.hpp"
#include "support/bits.hpp"
#include "transforms/blocked_butterfly.hpp"
#include "transforms/butterfly.hpp"
#include "transforms/kronecker.hpp"

namespace qs::core {

/// Structural kind of a mutation model.
enum class MutationKind {
  uniform,
  per_site,
  grouped,
};

/// Implicit description of the mutation matrix Q of chain length nu.
class MutationModel {
 public:
  /// Classic uniform-error-rate model. Requires 1 <= nu <= kMaxChainLength
  /// and 0 < p <= 1/2.
  static MutationModel uniform(unsigned nu, double p);

  /// Per-site model; sites[k] acts on position k. Each factor must be
  /// column stochastic with probability entries. Requires 1 <= sites.size()
  /// <= kMaxChainLength.
  static MutationModel per_site(std::vector<transforms::Factor2> sites);

  /// Grouped model from validated column-stochastic group factors;
  /// groups[0] acts on the least significant bit group.
  static MutationModel grouped(std::vector<linalg::DenseMatrix> groups);

  MutationKind kind() const { return kind_; }

  /// Chain length nu.  Models may be constructed for nu up to 1000 (they
  /// store only per-site factors); operations that index the full sequence
  /// space (dimension(), entry(), apply()) additionally require
  /// nu <= kMaxChainLength.
  unsigned nu() const { return nu_; }

  /// Problem dimension N = 2^nu. Requires nu <= kMaxChainLength.
  seq_t dimension() const {
    require(nu_ <= kMaxChainLength,
            "dimension(): chain length too large to index explicitly");
    return sequence_count(nu_);
  }

  /// Uniform error rate p. Requires kind() == uniform.
  double error_rate() const;

  /// True iff Q is symmetric (always for uniform; per-site/grouped when
  /// every factor is).  The symmetric problem formulation (Eq. (4)) is only
  /// admissible for symmetric Q.
  bool symmetric() const { return symmetric_; }

  /// Entry Q_{i,j}: probability that sequence X_j replicates into X_i.
  /// O(nu) per entry for 2x2 kinds, O(g) for grouped. Underflows to 0 for
  /// very distant pairs at large nu, exactly like the explicit matrix would.
  double entry(seq_t i, seq_t j) const;

  /// The class value Q_Gamma_k = p^k (1-p)^(nu-k) (uniform only).
  double class_value(unsigned k) const;

  /// In-place fast product v <- Q v: the banded butterfly of
  /// transforms/blocked_butterfly for 2x2 kinds (the Fmmp of Section 2.1),
  /// the group-banded Kronecker kernel of transforms/kronecker for Eq. (11).
  /// One dispatch on `engine` per level band, tiled by `plan`; every engine
  /// and plan computes the same bits as the paper's Algorithm 1.  Requires
  /// v.size() == dimension().
  void apply(std::span<double> v,
             const parallel::Engine& engine = parallel::serial_engine(),
             const transforms::BlockedPlan& plan = {}) const {
    apply_panel(v, 1, engine, plan);
  }

  /// Banded product on an interleaved panel of m vectors
  /// (panel[i*m + j] = element i of vector j): every column becomes Q column.
  /// Requires panel.size() == dimension() * m.
  void apply_panel(std::span<double> panel, std::size_t m,
                   const parallel::Engine& engine,
                   const transforms::BlockedPlan& plan = {}) const;

  /// 2x2 site factors (uniform and per-site kinds). Requires
  /// kind() != grouped.
  const std::vector<transforms::Factor2>& site_factors() const;

  /// Group factors (grouped kind). Requires kind() == grouped.
  const transforms::KroneckerProduct& group_product() const;

  /// Eigenvalue of Q belonging to Walsh index w (symmetric 2x2 kinds only):
  /// the product over set bits k of w of (1 - m01_k - m10_k); for the
  /// uniform model this is (1-2p)^{popcount(w)} as in Section 2.
  double walsh_eigenvalue(seq_t w) const;

 private:
  MutationModel() = default;

  MutationKind kind_ = MutationKind::uniform;
  unsigned nu_ = 0;
  double p_ = 0.0;  // uniform only
  bool symmetric_ = true;
  std::vector<transforms::Factor2> sites_;                 // 2x2 kinds
  std::optional<transforms::KroneckerProduct> groups_;     // grouped kind
};

}  // namespace qs::core
