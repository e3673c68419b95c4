// Figure 3 reproduction: overall execution times for finding the dominating
// eigenvector of Q*F (p = 0.01) on the paper's random landscape (Eq. (13),
// c = 5, sigma = 1) for increasing chain length nu.
//
// Series: Pi(Xmvp(nu)) with tau = 1e-13 (standard product, fully accurate),
// Pi(Xmvp(5)) with tau = 1e-10 (the approximation the paper reports to lose
// ~5 decimal digits), and Pi(Fmmp) with tau = 1e-13 (exact and fastest).
// The paper runs these on a Tesla C2050; here the parallel engine plays the
// GPU's role (see DESIGN.md, Substitutions) and absolute numbers differ,
// but the series ordering and slopes are the reproduction target.
//
// Caps (override with QS_BENCH_MAX_NU): Fmmp to nu = 20, Xmvp(5) to nu = 14,
// Xmvp(nu) to nu = 12; beyond the caps the cost is extrapolated from the
// measured slope (marked *), as the paper does for nu >= 22.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/fmmp.hpp"
#include "core/spectral.hpp"
#include "reference/xmvp.hpp"
#include "solvers/power_iteration.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

int main() {
  using namespace qs;
  const unsigned max_nu = bench::env_unsigned("QS_BENCH_MAX_NU", 20);
  const unsigned max_xmvp5_nu = std::min(14u, max_nu);
  const unsigned max_full_nu = std::min(12u, max_nu);
  const double p = 0.01;
  const parallel::Engine& engine = parallel::parallel_engine();

  std::cout << "# Figure 3: overall power-iteration times, random landscape "
               "(Eq. 13) c = 5, sigma = 1, p = "
            << p << "\n# engine: " << engine.name() << " ("
            << engine.concurrency() << " lanes) as the GPU substitute\n\n";

  TextTable table({"nu", "Pi(Xmvp(nu)) [s]", "Pi(Xmvp(5)) [s]", "Pi(Fmmp) [s]",
                   "iters(Fmmp)"});
  CsvWriter csv(std::cout);
  csv.header({"nu", "pi_xmvp_full_s", "full_extrapolated", "pi_xmvp5_s",
              "xmvp5_extrapolated", "pi_fmmp_s", "fmmp_iterations"});

  std::vector<double> full_nus, full_times, x5_nus, x5_times;
  for (unsigned nu = 10; nu <= max_nu; ++nu) {
    const auto model = core::MutationModel::uniform(nu, p);
    const auto landscape = core::Landscape::random(nu, 5.0, 1.0, nu);
    const auto start = solvers::landscape_start(landscape);
    const double shift = core::conservative_shift(model, landscape);

    auto run = [&](const core::LinearOperator& op, double tol) {
      solvers::PowerOptions opts;
      opts.tolerance = tol;
      opts.shift = shift;
      opts.engine = &engine;
      Timer t;
      const auto r = solvers::power_iteration(op, start, opts);
      return std::pair<double, unsigned>(t.seconds(), r.iterations);
    };

    const core::FmmpOperator fmmp(model, landscape, core::Formulation::right, &engine);
    const auto [t_fmmp, it_fmmp] = run(fmmp, 1e-13);

    double t_x5 = 0.0;
    bool x5_extrapolated = false;
    if (nu <= max_xmvp5_nu) {
      const core::XmvpOperator xmvp5(model, landscape, 5,
                                     core::Formulation::right, &engine);
      t_x5 = run(xmvp5, 1e-10).first;
      x5_nus.push_back(nu);
      x5_times.push_back(t_x5);
    } else {
      t_x5 = bench::fit_log2(x5_nus, x5_times).evaluate(nu);
      x5_extrapolated = true;
    }

    double t_full = 0.0;
    bool full_extrapolated = false;
    if (nu <= max_full_nu) {
      const core::XmvpOperator xmvp_full(model, landscape, nu,
                                         core::Formulation::right, &engine);
      t_full = run(xmvp_full, 1e-13).first;
      full_nus.push_back(nu);
      full_times.push_back(t_full);
    } else {
      t_full = bench::fit_log2(full_nus, full_times).evaluate(nu);
      full_extrapolated = true;
    }

    table.add_row({std::to_string(nu),
                   format_short(t_full) + (full_extrapolated ? "*" : ""),
                   format_short(t_x5) + (x5_extrapolated ? "*" : ""),
                   format_short(t_fmmp), std::to_string(it_fmmp)});
    csv.row().cell(std::size_t{nu}).cell(t_full)
        .cell(std::string(full_extrapolated ? "1" : "0")).cell(t_x5)
        .cell(std::string(x5_extrapolated ? "1" : "0")).cell(t_fmmp)
        .cell(std::size_t{it_fmmp});
    csv.end_row();
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n(* = extrapolated from the measured slope)\n"
            << "expected shape: Pi(Fmmp) << Pi(Xmvp(5)) << Pi(Xmvp(nu)), gaps "
               "widening with nu.\n";
  return 0;
}
