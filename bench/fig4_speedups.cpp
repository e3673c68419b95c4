// Figure 4 reproduction: speedup factors for solving the quasispecies model,
// algorithm x platform combinations over the serial Pi(Xmvp(nu)) reference.
//
// The paper's series: GPU-Pi(Fmmp), CPU-Pi(Fmmp), GPU-Pi(Xmvp(5)),
// CPU-Pi(Xmvp(5)), GPU-Pi(Xmvp(nu)), against CPU-Pi(Xmvp(nu)) = 1, with the
// N^2/(N log2 N) guide line.  Here "CPU" = serial backend and "GPU" = the
// parallel engine (DESIGN.md, Substitutions); on a single-core host the
// engine curves coincide with the serial ones (the hardware shift
// collapses), but the *algorithmic* slopes — the paper's main point — are
// hardware independent and reproduce.  "ser-Fmmp" times the paper's serial
// Algorithm 1 (reference::ReferenceFmmp); "eng-Fmmp" the production banded
// FmmpOperator on the engine.
//
// The reference Pi(Xmvp(nu)) is measured up to nu = 12 and extrapolated
// beyond from its fitted slope (the paper extrapolates it for nu >= 22).
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/fmmp.hpp"
#include "core/spectral.hpp"
#include "reference/fmmp.hpp"
#include "reference/xmvp.hpp"
#include "solvers/power_iteration.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

int main() {
  using namespace qs;
  const unsigned max_nu = bench::env_unsigned("QS_BENCH_MAX_NU", 20);
  const unsigned max_ref_nu = std::min(12u, max_nu);
  const unsigned max_x5_nu = std::min(14u, max_nu);
  const double p = 0.01;
  const parallel::Engine& gpu = parallel::parallel_engine();

  std::cout << "# Figure 4: speedups over serial Pi(Xmvp(nu)); engine '"
            << gpu.name() << "' (" << gpu.concurrency()
            << " lanes) substitutes the paper's GPU\n\n";

  TextTable table({"nu", "N2/(NlogN)", "eng-Fmmp", "ser-Fmmp", "eng-Xmvp(5)",
                   "ser-Xmvp(5)", "eng-Xmvp(nu)"});
  CsvWriter csv(std::cout);
  csv.header({"nu", "guide_n2_over_nlogn", "speedup_engine_fmmp",
              "speedup_serial_fmmp", "speedup_engine_xmvp5",
              "speedup_serial_xmvp5", "speedup_engine_xmvp_full",
              "reference_extrapolated"});

  std::vector<double> ref_nus, ref_times;
  for (unsigned nu = 10; nu <= max_nu; ++nu) {
    const auto model = core::MutationModel::uniform(nu, p);
    const auto landscape = core::Landscape::random(nu, 5.0, 1.0, nu);
    const auto start = solvers::landscape_start(landscape);
    const double shift = core::conservative_shift(model, landscape);

    auto run = [&](const core::LinearOperator& op, double tol,
                   const parallel::Engine* engine) {
      solvers::PowerOptions opts;
      opts.tolerance = tol;
      opts.shift = shift;
      opts.engine = engine;
      Timer t;
      (void)solvers::power_iteration(op, start, opts);
      return t.seconds();
    };

    // Reference: serial Pi(Xmvp(nu)) — measured small, extrapolated large.
    double t_ref = 0.0;
    bool ref_extrapolated = false;
    if (nu <= max_ref_nu) {
      const core::XmvpOperator ref_op(model, landscape, nu);
      t_ref = run(ref_op, 1e-13, nullptr);
      ref_nus.push_back(nu);
      ref_times.push_back(t_ref);
    } else {
      t_ref = bench::fit_log2(ref_nus, ref_times).evaluate(nu);
      ref_extrapolated = true;
    }

    const core::FmmpOperator fmmp_eng(model, landscape, core::Formulation::right, &gpu);
    const double t_fmmp_eng = run(fmmp_eng, 1e-13, &gpu);
    const reference::ReferenceFmmp fmmp_ser(model, landscape);
    const double t_fmmp_ser = run(fmmp_ser, 1e-13, nullptr);

    double t_x5_eng = 0.0, t_x5_ser = 0.0;
    if (nu <= max_x5_nu) {
      const core::XmvpOperator x5_eng(model, landscape, 5,
                                      core::Formulation::right, &gpu);
      t_x5_eng = run(x5_eng, 1e-10, &gpu);
      const core::XmvpOperator x5_ser(model, landscape, 5);
      t_x5_ser = run(x5_ser, 1e-10, nullptr);
    }

    double t_full_eng = 0.0;
    if (nu <= max_ref_nu) {
      const core::XmvpOperator full_eng(model, landscape, nu,
                                        core::Formulation::right, &gpu);
      t_full_eng = run(full_eng, 1e-13, &gpu);
    }

    const double n = std::ldexp(1.0, static_cast<int>(nu));
    const double guide = n / static_cast<double>(nu);  // N^2 / (N log2 N)

    auto speedup = [&](double t) { return t > 0.0 ? t_ref / t : 0.0; };
    auto cell = [&](double t) {
      return t > 0.0 ? format_short(speedup(t)) : std::string("-");
    };
    table.add_row({std::to_string(nu) + (ref_extrapolated ? "*" : ""),
                   format_short(guide), cell(t_fmmp_eng), cell(t_fmmp_ser),
                   cell(t_x5_eng), cell(t_x5_ser), cell(t_full_eng)});
    csv.row().cell(std::size_t{nu}).cell(guide).cell(speedup(t_fmmp_eng))
        .cell(speedup(t_fmmp_ser)).cell(speedup(t_x5_eng)).cell(speedup(t_x5_ser))
        .cell(speedup(t_full_eng))
        .cell(std::string(ref_extrapolated ? "1" : "0"));
    csv.end_row();
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout
      << "\n(* = reference time extrapolated; '-' = combination not measured "
         "at this size)\n"
      << "expected shape: Fmmp speedup grows ~ N/log2 N (same slope as the "
         "guide), Xmvp(5) grows with a flatter slope, Xmvp(nu) on the engine "
         "stays O(1)-ish; on multi-lane hardware the engine curves shift up "
         "by a constant factor without changing slope.\n";
  return 0;
}
