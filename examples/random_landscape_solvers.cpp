// General (random) landscapes: the regime where the paper's fast solver is
// the only practical option.
//
// Random landscapes (Eq. (13)) have no error-class or Kronecker structure,
// so neither the reduced nor the decoupled solver applies — the general
// machinery runs: the shifted power iteration on the Fmmp product.  This
// example compares it against the approximative Xmvp(5) path (the paper's
// earlier approach) and reports accuracy and runtime side by side.
//
//   $ ./random_landscape_solvers [nu] [seed]
#include <cstdlib>
#include <iostream>

#include "quasispecies.hpp"
#include "reference/xmvp.hpp"

int main(int argc, char** argv) {
  using namespace qs;
  const unsigned nu = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 14;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const double p = 0.01;

  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::random(nu, /*c=*/5.0, /*sigma=*/1.0, seed);
  std::cout << "random landscape (Eq. 13): nu = " << nu << ", c = 5, sigma = 1, "
            << "seed = " << seed << ", p = " << p << "\n\n";

  // Exact: Pi(Fmmp).
  Timer t_exact;
  const auto exact = solvers::solve(model, landscape);
  const double exact_s = t_exact.seconds();
  std::cout << "Pi(Fmmp)    : lambda = " << exact.eigenvalue << ", "
            << exact.iterations << " iterations, " << exact_s << " s, residual "
            << exact.residual << "\n";

  // Approximate: Pi(Xmvp(5)) with the paper's tau = 1e-10 — the facade's
  // shifted power iteration from the same start, on the reference product.
  solvers::PowerOptions approx_opts;
  approx_opts.tolerance = 1e-10;
  approx_opts.shift = core::conservative_shift(model, landscape);
  Timer t_approx;
  const core::XmvpOperator xmvp5(model, landscape, 5);
  const auto approx =
      solvers::power_iteration(xmvp5, solvers::landscape_start(landscape), approx_opts);
  const double approx_s = t_approx.seconds();

  double max_diff = 0.0;
  for (seq_t i = 0; i < exact.concentrations.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(exact.concentrations[i] -
                                           approx.eigenvector[i]));
  }
  std::cout << "Pi(Xmvp(5)) : lambda = " << approx.eigenvalue << ", "
            << approx.iterations << " iterations, " << approx_s << " s\n"
            << "              concentration error vs exact: " << max_diff
            << " (the paper reports ~5 lost digits for the approximation)\n\n";

  // What the quasispecies looks like on an unstructured landscape.
  std::cout << "exact solution summary:\n"
            << "  mean fitness (lambda_0): " << exact.eigenvalue << "\n"
            << "  master concentration x_0: " << exact.concentrations[0] << "\n"
            << "  population entropy: "
            << analysis::population_entropy(exact.concentrations) << " nats (max "
            << nu * std::log(2.0) << ")\n"
            << "  class concentrations [G0..G4]: ";
  for (unsigned k = 0; k <= std::min(nu, 4u); ++k) {
    std::cout << exact.class_concentrations[k] << " ";
  }
  std::cout << "\n";
  return 0;
}
