// Ablation (Section 2.1 / 4): butterfly kernel variants.
//
//  * Eq. (9) vs Eq. (10): ascending vs descending level order — identical
//    arithmetic, different memory traversal.
//  * Serial Algorithm 1 vs engine-dispatched Algorithm 2 (the GPU kernel
//    with the index mapping j = 2*ID - (ID & (stride-1))) on both backends.
//
// Every column times reference::ReferenceFmmp, the paper's algorithms
// verbatim; the production banded kernel is timed by fig2_matvec_runtimes.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "reference/fmmp.hpp"
#include "support/csv.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

int main() {
  using namespace qs;
  const unsigned max_nu = bench::env_unsigned("QS_BENCH_MAX_NU", 22);
  const double p = 0.01;

  std::cout << "# Ablation: Fmmp kernel variants (times per product, best of 3)\n\n";

  TextTable table({"nu", "Eq.(9) asc [s]", "Eq.(10) desc [s]", "Alg.2 serial [s]",
                   "Alg.2 engine [s]"});
  CsvWriter csv(std::cout);
  csv.header({"nu", "eq9_ascending_s", "eq10_descending_s", "alg2_serial_s",
              "alg2_engine_s"});

  for (unsigned nu = 14; nu <= max_nu; nu += 2) {
    const std::size_t n = std::size_t{1} << nu;
    const auto model = core::MutationModel::uniform(nu, p);
    const auto landscape = core::Landscape::random(nu, 5.0, 1.0, nu);
    std::vector<double> x(n), y(n);
    Xoshiro256 rng(nu);
    for (double& v : x) v = rng.uniform(0.0, 1.0);

    using reference::ReferenceFmmp;
    const ReferenceFmmp asc(model, landscape, core::Formulation::right, nullptr,
                            transforms::LevelOrder::ascending);
    const ReferenceFmmp desc(model, landscape, core::Formulation::right, nullptr,
                             transforms::LevelOrder::descending);
    const ReferenceFmmp alg2_serial(model, landscape, core::Formulation::right,
                                    &parallel::serial_engine());
    const ReferenceFmmp alg2_engine(model, landscape, core::Formulation::right,
                                    &parallel::parallel_engine());

    const double t_asc = bench::time_best_of(3, [&] { asc.apply(x, y); });
    const double t_desc = bench::time_best_of(3, [&] { desc.apply(x, y); });
    const double t_ser = bench::time_best_of(3, [&] { alg2_serial.apply(x, y); });
    const double t_eng = bench::time_best_of(3, [&] { alg2_engine.apply(x, y); });

    table.add_row({std::to_string(nu), format_short(t_asc), format_short(t_desc),
                   format_short(t_ser), format_short(t_eng)});
    csv.row().cell(std::size_t{nu}).cell(t_asc).cell(t_desc).cell(t_ser).cell(t_eng);
    csv.end_row();
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nexpected shape: Eq.(9) and Eq.(10) within noise of each "
               "other (same arithmetic, both stream memory); Algorithm 2 adds "
               "index-arithmetic overhead serially and wins on multi-lane "
               "hardware in proportion to the lane count.\n";
  return 0;
}
