#include "core/mutation_model.hpp"

#include <cmath>

#include "core/site_process.hpp"
#include "support/contracts.hpp"
#include "transforms/panel_butterfly.hpp"

namespace qs::core {

MutationModel MutationModel::uniform(unsigned nu, double p) {
  require(nu >= 1 && nu <= 1000, "chain length nu out of range");
  require(p > 0.0 && p <= 0.5, "error rate p must satisfy 0 < p <= 1/2");
  MutationModel m;
  m.kind_ = MutationKind::uniform;
  m.nu_ = nu;
  m.p_ = p;
  m.symmetric_ = true;
  m.sites_.assign(nu, transforms::Factor2::uniform(p));
  return m;
}

MutationModel MutationModel::per_site(std::vector<transforms::Factor2> sites) {
  require(!sites.empty() && sites.size() <= 1000,
          "per-site model needs 1..1000 factors");
  bool symmetric = true;
  for (const auto& f : sites) {
    validate_site(f);
    if (std::abs(f.m01 - f.m10) > 0.0) symmetric = false;
  }
  MutationModel m;
  m.kind_ = MutationKind::per_site;
  m.nu_ = static_cast<unsigned>(sites.size());
  m.symmetric_ = symmetric;
  m.sites_ = std::move(sites);
  return m;
}

MutationModel MutationModel::grouped(std::vector<linalg::DenseMatrix> groups) {
  require(!groups.empty(), "grouped model needs at least one group factor");
  bool symmetric = true;
  for (const auto& g : groups) {
    validate_group(g);
    if (!g.is_symmetric(0.0)) symmetric = false;
  }
  MutationModel m;
  m.kind_ = MutationKind::grouped;
  m.groups_.emplace(std::move(groups));
  m.nu_ = m.groups_->total_bits();
  m.symmetric_ = symmetric;
  return m;
}

double MutationModel::error_rate() const {
  require(kind_ == MutationKind::uniform, "error_rate(): model is not uniform");
  return p_;
}

double MutationModel::entry(seq_t i, seq_t j) const {
  require(i < dimension() && j < dimension(), "entry(): index out of range");
  if (kind_ == MutationKind::grouped) {
    double prod = 1.0;
    unsigned lo = 0;
    const auto& kp = *groups_;
    for (std::size_t g = 0; g < kp.group_count(); ++g) {
      const unsigned bits = kp.group_bits(g);
      const seq_t mask = (seq_t{1} << bits) - 1;
      const auto row = static_cast<std::size_t>((i >> lo) & mask);
      const auto col = static_cast<std::size_t>((j >> lo) & mask);
      prod *= kp.factors()[g](row, col);
      lo += bits;
    }
    return prod;
  }
  if (kind_ == MutationKind::uniform) {
    const unsigned d = hamming_distance(i, j);
    return std::pow(p_, static_cast<double>(d)) *
           std::pow(1.0 - p_, static_cast<double>(nu_ - d));
  }
  double prod = 1.0;
  for (unsigned k = 0; k < nu_; ++k) {
    const bool bi = (i >> k) & 1;
    const bool bj = (j >> k) & 1;
    const transforms::Factor2& f = sites_[k];
    // Factor entry (row = state after, col = state before).
    prod *= bi ? (bj ? f.m11 : f.m10) : (bj ? f.m01 : f.m00);
  }
  return prod;
}

double MutationModel::class_value(unsigned k) const {
  require(kind_ == MutationKind::uniform, "class_value(): model is not uniform");
  require(k <= nu_, "class_value(): class index k must satisfy k <= nu");
  return std::pow(p_, static_cast<double>(k)) *
         std::pow(1.0 - p_, static_cast<double>(nu_ - k));
}

void MutationModel::apply_panel(std::span<double> panel, std::size_t m,
                                const parallel::Engine& engine,
                                const transforms::BlockedPlan& plan) const {
  require(m >= 1, "apply_panel(): panel width m must be >= 1");
  require(panel.size() == dimension() * m, "apply_panel(): dimension mismatch");
  if (kind_ == MutationKind::grouped) {
    transforms::apply_blocked_kronecker(panel, m, *groups_, engine, plan);
    return;
  }
  transforms::apply_blocked_panel_butterfly(panel, m, sites_, engine, plan);
}

const std::vector<transforms::Factor2>& MutationModel::site_factors() const {
  require(kind_ != MutationKind::grouped, "site_factors(): grouped model has none");
  return sites_;
}

const transforms::KroneckerProduct& MutationModel::group_product() const {
  require(kind_ == MutationKind::grouped, "group_product(): model is not grouped");
  return *groups_;
}

double MutationModel::walsh_eigenvalue(seq_t w) const {
  require(kind_ != MutationKind::grouped,
          "walsh_eigenvalue(): only 2x2-factor models are Hadamard-diagonalisable");
  require(symmetric_, "walsh_eigenvalue(): model must be symmetric");
  require(w < dimension(), "walsh_eigenvalue(): index out of range");
  double prod = 1.0;
  for (unsigned k = 0; k < nu_; ++k) {
    if ((w >> k) & 1) {
      const transforms::Factor2& f = sites_[k];
      prod *= 1.0 - f.m01 - f.m10;  // (1 - 2 p_k) for the uniform factor
    }
  }
  return prod;
}

}  // namespace qs::core
