// Ablation: residual-check cadence in the power iteration.
//
// The product W x is reused for the update, so a residual check costs only
// reductions: two passes over x and y (solvers/power_iteration.cpp).
// Between checks the loop normalises nothing: a product runs out of place
// followed by one shift pass (or in place when unshifted and the product
// allows it), up to K products per stretch for an operator that reports
// its fitness range.  Checking every k-th iteration skips the passes at the
// price of overshooting convergence by up to k-1 products.  A check every
// product is also what the Chebyshev shift schedule needs, so the cadence-1
// row runs the schedule and every sparser row the fixed shift.  This bench
// measures the trade on one problem family.
#include <iostream>

#include "bench_common.hpp"
#include "core/fmmp.hpp"
#include "core/spectral.hpp"
#include "solvers/power_iteration.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

int main() {
  using namespace qs;
  const unsigned nu = std::min(18u, bench::env_unsigned("QS_BENCH_MAX_NU", 18));
  const double p = 0.01;
  const auto model = core::MutationModel::uniform(nu, p);
  const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 9);
  const core::FmmpOperator op(model, landscape);
  const auto start = solvers::landscape_start(landscape);
  const double shift = core::conservative_shift(model, landscape);

  std::cout << "# Ablation: residual-check cadence (random landscape, nu = "
            << nu << ")\n\n";

  TextTable table({"check every", "iterations", "time [s]", "final residual"});
  CsvWriter csv(std::cout);
  csv.header({"cadence", "iterations", "time_s", "residual"});

  for (unsigned cadence : {1u, 2u, 4u, 8u, 16u, 32u}) {
    solvers::PowerOptions opts;
    opts.shift = shift;
    opts.residual_check_every = cadence;
    Timer t;
    const auto r = solvers::power_iteration(op, start, opts);
    const double seconds = t.seconds();
    if (!r.converged) {
      std::cout << "cadence " << cadence << ": did not converge\n";
      continue;
    }
    table.add_row({std::to_string(cadence), std::to_string(r.iterations),
                   format_short(seconds), format_short(r.residual)});
    csv.row().cell(std::size_t{cadence}).cell(std::size_t{r.iterations})
        .cell(seconds).cell(r.residual);
    csv.end_row();
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nexpected shape: cadence 1 runs the shift schedule and "
               "needs the fewest products; among the fixed-shift rows, sparser "
               "checks overshoot by at most (cadence - 1) products while saving "
               "the check passes.\n";
  return 0;
}
