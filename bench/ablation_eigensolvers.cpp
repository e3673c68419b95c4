// Ablation (Section 3): the eigensolver grid — which kind earns its place.
//
// The paper picks the shifted power iteration over Lanczos/Arnoldi for its
// storage.  The library keeps three production kinds, and each must win a
// row of this grid or be the only kind that can run it:
//
//   power     the facade (solvers::solve): shifted, Chebyshev-scheduled
//             power iteration on Fmmp — the paper's solver
//   arnoldi   restarted Arnoldi, basis 20: asymmetric-capable, fewer
//             products near the error threshold, 22+ stored vectors
//   block     block power with Rayleigh-Ritz: the only top-k kind
//   rqi       the Rayleigh quotient iteration oracle (reference library),
//             kept as a baseline; near the threshold it finds lambda_1
//
// Rows: random nu = 18 (p = 0.01), single-peak nu = 20 at p = 0.034 and
// 0.035 (near the error threshold), per-site asymmetric nu = 16 (random)
// and nu = 20 (single-peak near its threshold), and the top 4 pairs at
// nu = 14.  Every cell reports W-products (panel products for block), wall
// time (`solve_s`, best of kReps runs; the key bench_diff pins), the peak of
// live heap above the pre-solve level in N-vectors (counted by this binary's
// operator new in one more, untimed run; the timed runs pay one relaxed
// load per allocation), and the residual ||W x - lambda x||_2 /
// ||lambda x||_2 recomputed here from one product of the right formulation,
// worst pair for block.  `dominant` says whether lambda matches the row's
// lambda_0: the reduced (nu + 1)^2 solve where the landscape has error
// classes and the model is uniform, else the power solve.  Rows above
// QS_BENCH_MAX_NU (default 20) are skipped.
//
// Writes BENCH_eigensolvers.json (override with QS_BENCH_JSON).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <new>
#include <optional>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_common.hpp"
#include "core/fmmp.hpp"
#include "reference/shift_invert.hpp"
#include "solvers/arnoldi.hpp"
#include "solvers/block_power.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "solvers/reduced_solver.hpp"
#include "support/table.hpp"

// Live-heap accounting for the peak-vector column: while `counting` is set,
// every operator new of this binary (the library's vectors and workspaces
// included) adds its usable size and every delete subtracts it; otherwise
// they cost one relaxed load.  The counts are signed, so a block allocated
// before counting began and freed during it only lowers the level.  glibc
// only; elsewhere the column reads 0.
#if defined(__GLIBC__)
namespace {
std::atomic<bool> counting{false};
std::atomic<std::int64_t> live_bytes{0};
std::atomic<std::int64_t> peak_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  if (counting.load(std::memory_order_relaxed)) {
    const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
    const std::int64_t live = live_bytes.fetch_add(bytes) + bytes;
    std::int64_t peak = peak_bytes.load();
    while (live > peak && !peak_bytes.compare_exchange_weak(peak, live)) {
    }
  }
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  if (counting.load(std::memory_order_relaxed)) {
    live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)));
  }
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
#endif

namespace {

using namespace qs;

constexpr double kTolerance = 1e-10;
constexpr unsigned kReps = 2;  ///< Timed runs per cell; the best is kept.

/// Peak live heap during `fn` above the level at its start, in bytes.
template <typename Fn>
std::int64_t peak_heap_of(Fn&& fn) {
#if defined(__GLIBC__)
  live_bytes.store(0);
  peak_bytes.store(0);
  counting.store(true);
  fn();
  counting.store(false);
  return peak_bytes.load();
#else
  fn();
  return 0;
#endif
}

struct Cell {
  std::string label;
  std::size_t products = 0;
  double seconds = 0.0;
  double peak_vectors = 0.0;
  double residual = 0.0;
  double lambda = 0.0;
  bool converged = false;
  bool dominant = false;
  std::vector<double> eigenvalues;  ///< Block only: the k Ritz values.
};

struct Row {
  std::string name;
  unsigned nu;
  std::string mutation;
  std::string landscape_text;
  core::MutationModel model;
  core::Landscape landscape;
  std::optional<double> reduced_lambda0;  ///< Exact, where it applies.
  unsigned top_k = 1;
  std::vector<Cell> cells;
};

/// What one solve hands back for the residual and lambda columns.
struct Pair {
  double lambda = 0.0;
  std::vector<double> concentrations;
};

struct Outcome {
  std::size_t products = 0;
  bool converged = false;
  std::vector<Pair> pairs;  ///< Leading pair first.
};

double true_residual(const core::FmmpOperator& w, const Pair& pair) {
  const std::vector<double>& x = pair.concentrations;
  std::vector<double> wx(x.size());
  w.apply(x, wx);
  double r2 = 0.0, x2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = wx[i] - pair.lambda * x[i];
    r2 += r * r;
    x2 += x[i] * x[i];
  }
  return std::sqrt(r2) / (std::abs(pair.lambda) * std::sqrt(x2));
}

Cell run_cell(const Row& row, const std::string& label,
              const std::function<Outcome()>& solve) {
  Cell cell;
  cell.label = label;
  const double vector_bytes =
      static_cast<double>(row.model.dimension()) * sizeof(double);
  Outcome outcome;
  cell.seconds = bench::time_best_of(kReps, [&] { outcome = solve(); });
  cell.peak_vectors =
      static_cast<double>(peak_heap_of([&] { solve(); })) / vector_bytes;
  cell.products = outcome.products;
  cell.converged = outcome.converged;
  cell.lambda = outcome.pairs.front().lambda;
  const core::FmmpOperator w(row.model, row.landscape);
  for (const Pair& pair : outcome.pairs) {
    cell.residual = std::max(cell.residual, true_residual(w, pair));
    if (row.top_k > 1) cell.eigenvalues.push_back(pair.lambda);
  }
  return cell;
}

Outcome power_solve(const Row& row) {
  solvers::SolveOptions options;
  options.tolerance = kTolerance;
  auto r = solvers::solve(row.model, row.landscape, options);
  return {r.iterations, r.converged, {{r.eigenvalue, std::move(r.concentrations)}}};
}

Outcome arnoldi_solve(const Row& row) {
  solvers::ArnoldiOptions options;
  options.tolerance = kTolerance;
  auto r = solvers::arnoldi_dominant_w(row.model, row.landscape, {}, options);
  return {r.matvec_count, r.converged,
          {{r.eigenvalue, std::move(r.concentrations)}}};
}

Outcome rqi_solve(const Row& row) {
  solvers::ShiftInvertOptions options;
  options.tolerance = kTolerance;
  auto r = solvers::rayleigh_quotient_iteration_w(row.model, row.landscape, {},
                                                  options);
  return {r.products, r.converged, {{r.eigenvalue, std::move(r.concentrations)}}};
}

Outcome block_solve(const Row& row) {
  solvers::BlockPowerOptions options;
  options.tolerance = kTolerance;
  options.k = row.top_k;
  auto r = solvers::top_k_spectrum(row.model, row.landscape, options);
  Outcome out{r.iterations, r.converged, {}};
  for (std::size_t j = 0; j < r.eigenvalues.size(); ++j) {
    out.pairs.push_back({r.eigenvalues[j], std::move(r.eigenvectors[j])});
  }
  return out;
}

/// Site i of nu gets Factor2::asymmetric(a + da * i, b + db * i).
core::MutationModel asymmetric_model(unsigned nu, double a, double da, double b,
                                     double db) {
  std::vector<transforms::Factor2> sites;
  for (unsigned i = 0; i < nu; ++i) {
    sites.push_back(transforms::Factor2::asymmetric(a + da * i, b + db * i));
  }
  return core::MutationModel::per_site(std::move(sites));
}

Row uniform_single_peak(unsigned nu, double p, std::string name) {
  return {std::move(name),
          nu,
          "uniform p=" + format_short(p),
          "single-peak 2/1",
          core::MutationModel::uniform(nu, p),
          core::Landscape::single_peak(nu, 2.0, 1.0),
          solvers::solve_reduced(p, core::ErrorClassLandscape::single_peak(nu, 2.0, 1.0))
              .eigenvalue,
          1,
          {}};
}

std::vector<Row> grid(unsigned max_nu) {
  std::vector<Row> rows;
  rows.push_back({"random_nu18", 18, "uniform p=0.01", "random c=5 sigma=1 seed=1",
                  core::MutationModel::uniform(18, 0.01),
                  core::Landscape::random(18, 5.0, 1.0, 1), std::nullopt, 1, {}});
  rows.push_back(uniform_single_peak(20, 0.034, "single_peak_nu20_p0.034"));
  rows.push_back(uniform_single_peak(20, 0.035, "single_peak_nu20_p0.035"));
  rows.push_back({"asymmetric_nu16", 16,
                  "per-site asymmetric (0.01+0.001i, 0.02-0.0005i)",
                  "random c=5 sigma=1 seed=3",
                  asymmetric_model(16, 0.01, 0.001, 0.02, -0.0005),
                  core::Landscape::random(16, 5.0, 1.0, 3), std::nullopt, 1, {}});
  rows.push_back({"asymmetric_nu20_threshold", 20,
                  "per-site asymmetric (0.03+0.0005i, 0.04-0.0005i)",
                  "single-peak 2/1", asymmetric_model(20, 0.03, 0.0005, 0.04, -0.0005),
                  core::Landscape::single_peak(20, 2.0, 1.0), std::nullopt, 1, {}});
  rows.push_back({"top4_nu14", 14, "uniform p=0.01", "random c=5 sigma=1 seed=1",
                  core::MutationModel::uniform(14, 0.01),
                  core::Landscape::random(14, 5.0, 1.0, 1), std::nullopt, 4, {}});
  std::erase_if(rows, [max_nu](const Row& row) { return row.nu > max_nu; });
  return rows;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: could not open " << path << " for writing\n";
    return;
  }
  out.precision(9);
  out << "{\n  \"figure\": \"eigensolvers\",\n  \"tolerance\": " << kTolerance
      << ",\n  \"reps\": " << kReps << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "    {\"name\": \"" << row.name << "\", \"nu\": " << row.nu
        << ", \"mutation\": \"" << row.mutation << "\", \"landscape\": \""
        << row.landscape_text << "\", \"k\": " << row.top_k;
    if (row.reduced_lambda0) {
      out << ", \"lambda0_reduced\": " << *row.reduced_lambda0;
    }
    out << ", \"solvers\": [\n";
    for (std::size_t j = 0; j < row.cells.size(); ++j) {
      const Cell& c = row.cells[j];
      out << "      {\"label\": \"" << c.label << "\", \"products\": " << c.products
          << ", \"solve_s\": " << c.seconds << ", \"peak_vectors\": "
          << c.peak_vectors << ", \"residual\": " << c.residual
          << ", \"lambda\": " << c.lambda << ", \"converged\": "
          << (c.converged ? "true" : "false") << ", \"dominant\": "
          << (c.dominant ? "true" : "false");
      if (!c.eigenvalues.empty()) {
        out << ", \"eigenvalues\": [";
        for (std::size_t e = 0; e < c.eigenvalues.size(); ++e) {
          out << (e == 0 ? "" : ", ") << c.eigenvalues[e];
        }
        out << "]";
      }
      out << "}" << (j + 1 < row.cells.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main() {
  const unsigned max_nu = bench::env_unsigned("QS_BENCH_MAX_NU", 20);
  const char* json_env = std::getenv("QS_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_eigensolvers.json";

  std::cout << "# Eigensolver grid: tolerance " << kTolerance << ", best of "
            << kReps << " runs\n\n";
  TextTable table({"row", "solver", "products", "time [s]", "peak N-vectors",
                   "true residual", "lambda", "dominant"});
  std::vector<Row> rows = grid(max_nu);
  for (Row& row : rows) {
    const bool symmetric = row.model.symmetric();
    if (row.top_k > 1) {
      row.cells.push_back(run_cell(row, "block", [&] { return block_solve(row); }));
    } else {
      row.cells.push_back(run_cell(row, "power", [&] { return power_solve(row); }));
      row.cells.push_back(
          run_cell(row, "arnoldi", [&] { return arnoldi_solve(row); }));
      if (symmetric) {
        row.cells.push_back(run_cell(row, "rqi", [&] { return rqi_solve(row); }));
      }
    }
    const double lambda0 = row.reduced_lambda0.value_or(row.cells.front().lambda);
    for (Cell& c : row.cells) {
      c.dominant = std::abs(c.lambda - lambda0) <= 1e-8 * std::abs(lambda0);
      table.add_row({row.name, c.label, std::to_string(c.products),
                     format_short(c.seconds), format_short(c.peak_vectors),
                     format_short(c.residual), format_short(c.lambda),
                     c.dominant ? "yes" : "NO"});
    }
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: power wins the random rows and the "
               "asymmetric nu = 16 row; Arnoldi wins the asymmetric threshold "
               "row, where power needs ~1500 products; block is the only top-k "
               "kind; RQI converges to lambda_1 near the threshold "
               "(dominant = NO).\n";
  write_json(json_path, rows);
  return 0;
}
