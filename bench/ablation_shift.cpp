// Ablation (Section 3): the conservative spectral shift
// mu = (1 - 2p)^nu * f_min, and the Chebyshev shift schedule built on it.
//
// The paper reports "a clearly measurable reduction of the number of
// iterations of about ten percent and more" on random landscapes.  This
// bench runs three iterations over several random landscapes and error
// rates and reports their product counts:
//   * unshifted — the production loop with shift 0;
//   * fixed shift — the paper's shifted power iteration, written out below
//     over the operator (the production loop leaves the fixed shift once
//     it has measured the decay rate, so it cannot give this count);
//   * scheduled — the production loop with the shift, which cycles its
//     shift through Chebyshev roots on [mu, lambda-hat_2] once engaged.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/fmmp.hpp"
#include "core/spectral.hpp"
#include "solvers/power_iteration.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

namespace {

/// Products the fixed-shift power iteration x <- (W - mu I) x / ||.||_1
/// needs from `x` until the relative residual ||Wx - lambda x||_2 /
/// (|lambda| ||x||_2) of the Rayleigh quotient lambda is at most
/// `tolerance`: the production loop's residual, checked every product.
unsigned fixed_shift_products(const qs::core::LinearOperator& op,
                              std::vector<double> x, double mu, double tolerance,
                              unsigned cap) {
  std::vector<double> y(x.size());
  for (unsigned it = 1; it <= cap; ++it) {
    op.apply(x, y);
    double xx = 0.0, xy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      xx += x[i] * x[i];
      xy += x[i] * y[i];
    }
    const double lambda = xy / xx;
    double rr = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double r = y[i] - lambda * x[i];
      rr += r * r;
      y[i] -= mu * x[i];
      norm += std::abs(y[i]);
    }
    if (std::sqrt(rr) <= tolerance * std::abs(lambda) * std::sqrt(xx)) return it;
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = y[i] / norm;
  }
  return cap;
}

}  // namespace

int main() {
  using namespace qs;
  const unsigned nu = std::min(16u, bench::env_unsigned("QS_BENCH_MAX_NU", 16));

  std::cout << "# Ablation: conservative shift mu = (1-2p)^nu f_min in the "
               "power iteration, fixed and on the Chebyshev schedule (random "
               "landscapes, nu = "
            << nu << ")\n\n";

  TextTable table({"p", "seed", "iters unshifted", "iters fixed shift",
                   "iters scheduled", "shift reduction %", "schedule reduction %"});
  CsvWriter csv(std::cout);
  csv.header({"p", "seed", "iterations_unshifted", "iterations_fixed_shift",
              "iterations_scheduled", "shift_reduction_percent",
              "schedule_reduction_percent"});

  double total_unshifted = 0.0, total_fixed = 0.0, total_scheduled = 0.0;
  for (double p : {0.001, 0.01, 0.05}) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      const auto model = core::MutationModel::uniform(nu, p);
      const auto landscape = core::Landscape::random(nu, 5.0, 1.0, seed);
      const core::FmmpOperator op(model, landscape);
      const auto start = solvers::landscape_start(landscape);

      solvers::PowerOptions plain;
      const auto unshifted = solvers::power_iteration(op, start, plain);

      solvers::PowerOptions shifted = plain;
      shifted.shift = core::conservative_shift(model, landscape);
      const unsigned fixed = fixed_shift_products(op, start, shifted.shift,
                                                  plain.tolerance,
                                                  plain.max_iterations);
      const auto scheduled = solvers::power_iteration(op, start, shifted);

      const double shift_reduction =
          100.0 * (1.0 - static_cast<double>(fixed) /
                             static_cast<double>(unshifted.iterations));
      const double schedule_reduction =
          100.0 * (1.0 - static_cast<double>(scheduled.iterations) /
                             static_cast<double>(fixed));
      total_unshifted += unshifted.iterations;
      total_fixed += fixed;
      total_scheduled += scheduled.iterations;

      table.add_row({format_short(p), std::to_string(seed),
                     std::to_string(unshifted.iterations), std::to_string(fixed),
                     std::to_string(scheduled.iterations),
                     format_short(shift_reduction), format_short(schedule_reduction)});
      csv.row().cell(p).cell(std::size_t{seed}).cell(std::size_t{unshifted.iterations})
          .cell(std::size_t{fixed}).cell(std::size_t{scheduled.iterations})
          .cell(shift_reduction).cell(schedule_reduction);
      csv.end_row();
    }
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\noverall iteration reduction of the fixed shift: "
            << format_short(100.0 * (1.0 - total_fixed / total_unshifted))
            << " % (paper: about ten percent and more)\n"
            << "overall iteration reduction of the schedule over the fixed shift: "
            << format_short(100.0 * (1.0 - total_scheduled / total_fixed)) << " %\n";
  return 0;
}
