// qs_solve — command-line quasispecies solver.
//
// One binary that exposes the library's main solve paths:
//
//   qs_solve --nu 16 --p 0.01 --landscape single-peak --peak 2 --rest 1
//   qs_solve --nu 20 --p 0.02 --landscape linear --f0 2 --fnu 1 --reduced
//   qs_solve --nu 14 --p 0.01 --landscape random --c 5 --sigma 1 --seed 7
//            --solver arnoldi --csv out.csv
//   qs_solve --nu 16 --p 0.005 --landscape load --input land.qs
//            --save-landscape snapshot.qs --checkpoint state.qs
//
// Prints the dominant eigenvalue, iteration statistics, and the error-class
// concentrations; optionally writes the full concentration vector / class
// table as CSV and saves landscapes / solver checkpoints through the binary
// io module.
#include <algorithm>
#include <csignal>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "quasispecies.hpp"
#include "support/args.hpp"

namespace {

void print_usage() {
  std::cout <<
      "qs_solve — fast quasispecies solver (SC'11 reproduction)\n\n"
      "required:\n"
      "  --nu N              chain length (1..24 for full solves)\n"
      "  --p RATE            per-position error rate, 0 < p <= 1/2\n"
      "landscape (--landscape KIND):\n"
      "  single-peak         --peak F0 --rest F (default 2 / 1)\n"
      "  linear              --f0 F0 --fnu FN (default 2 / 1)\n"
      "  random              --c C --sigma S --seed SEED (Eq. 13; default 5/1/1)\n"
      "  flat                --c C (default 1)\n"
      "  load                --input FILE (a landscape saved by this tool)\n"
      "solver (--solver KIND, default power):\n"
      "  power               shifted power iteration on Fmmp (the paper's solver)\n"
      "  arnoldi             restarted Arnoldi (asymmetric-capable; fewer\n"
      "                      products near the error threshold, more memory)\n"
      "  block               block subspace iteration (same as --block-size 2)\n"
      "options:\n"
      "  --reduced           use the exact (nu+1)^2 reduction (error-class\n"
      "                      landscapes only; allows huge --nu)\n"
      "  --ranks R           distributed power solve over R ranks (power of\n"
      "                      two; hypercube decomposition, each rank owns a\n"
      "                      2^nu/R block; bit-identical to the serial solve)\n"
      "  --exchange KIND     distributed transport: lockstep (threads, the\n"
      "                      default) or process (forked ranks over AF_UNIX\n"
      "                      socketpairs — real per-rank address spaces)\n"
      "  --tolerance T       relative residual target (default 1e-13)\n"
      "  --no-shift          disable the convergence-acceleration shift\n"
      "  --parallel          use the thread-pool engine\n"
      "  --block-size K      compute the K leading eigenpairs by block\n"
      "                      subspace iteration on the banded *panel* kernel\n"
      "                      (one memory sweep advances all K vectors; the\n"
      "                      dominant pair is reported as the solution)\n"
      "  --autotune          measure a grid of banded-kernel tiling plans at\n"
      "                      this problem size (seeded by the detected cache\n"
      "                      hierarchy) and solve with the fastest; never\n"
      "                      slower than the fixed default plan\n"
      "  --tile-log2 T       banded kernel tile size override (default 14)\n"
      "  --chunk-log2 C      banded kernel chunk size override (default 6)\n"
      "  --csv FILE          write species concentrations as CSV\n"
      "  --classes-csv FILE  write [Gamma_k] per class as CSV\n"
      "  --save-landscape F  persist the landscape in binary form\n"
      "resilience (every full solver; not --reduced):\n"
      "  --checkpoint FILE   periodically persist the solver state to FILE\n"
      "                      (atomic + checksummed; for power also\n"
      "                      written on exit) so an interrupted run can\n"
      "                      restart with --resume\n"
      "  --checkpoint-every N  iterations between checkpoints (default 1000;\n"
      "                      restart cycles for arnoldi, panel products for\n"
      "                      block)\n"
      "  --checkpoint-every-seconds S  wall-clock seconds between checkpoints\n"
      "                      (default 30 when given without a value source;\n"
      "                      combines with --checkpoint-every as a union —\n"
      "                      whichever cadence fires first writes)\n"
      "  --resume FILE       resume an interrupted run from a checkpoint\n"
      "                      written by --checkpoint (the model, landscape,\n"
      "                      options, and --solver must match the original\n"
      "                      run; a checkpoint from a different solver is\n"
      "                      refused with a clear message)\n"
      "  --no-recover        fail immediately instead of restarting once from\n"
      "                      the last good checkpoint / dropping the shift\n"
      "                      when the iterate goes non-finite or stalls\n"
      "observability:\n"
      "  --trace-json FILE   write a Chrome trace-event JSON of the run\n"
      "                      (load in ui.perfetto.dev or chrome://tracing;\n"
      "                      span events need a build with the 'trace'\n"
      "                      preset / QS_ENABLE_TRACING=ON)\n"
      "  --metrics FILE      write an aggregate metrics snapshot (JSON, or\n"
      "                      CSV when FILE ends in .csv): solver values,\n"
      "                      residual tail, per-phase time shares, SIMD/plan\n"
      "                      provenance\n"
      "other:\n"
      "  --top K             print the K most concentrated species (default 5)\n"
      "  --help              this text\n";
}

/// Ends the run with exit code 2.  `verdict` names the outcome in the
/// metrics snapshot: not_converged, a SolverFailure name, or error.
struct CliError {
  std::string message;
  std::string verdict = "error";
};

/// Thrown when SIGINT/SIGTERM stopped the solve at an iteration boundary:
/// the driver has already flushed a final checkpoint (when --checkpoint is
/// set), so main() only has to report where the state went and exit 130.
struct Interrupted {
  std::string checkpoint_path;
};

/// The checkpoint/resume command-line block, parsed once and applied to
/// whichever solver branch runs.  Every full solver supports it through the
/// shared iteration driver; the reduced path (a direct small eigensolve,
/// nothing to resume) rejects it.
struct ResilienceCli {
  std::string checkpoint_path;
  unsigned checkpoint_every = 0;
  double checkpoint_every_seconds = 0.0;
  std::optional<qs::io::SolverCheckpoint> resume;
};

ResilienceCli parse_resilience(const qs::ArgParser& args) {
  ResilienceCli cli;
  if (args.has("checkpoint")) {
    cli.checkpoint_path = args.get("checkpoint", "");
    const bool has_seconds = args.has("checkpoint-every-seconds");
    if (has_seconds) {
      cli.checkpoint_every_seconds =
          args.get_double("checkpoint-every-seconds", 30.0, 1e-3, 1e9);
    }
    // The iteration cadence stays on by default; giving only the seconds
    // cadence switches to pure wall-clock checkpointing.
    if (args.has("checkpoint-every") || !has_seconds) {
      cli.checkpoint_every = static_cast<unsigned>(
          args.get_long("checkpoint-every", 1000, 1, 1000000000));
    }
  } else if (args.has("checkpoint-every") ||
             args.has("checkpoint-every-seconds")) {
    throw CliError{
        "--checkpoint-every/--checkpoint-every-seconds need --checkpoint FILE"};
  }
  if (args.has("resume")) {
    cli.resume = qs::io::load_checkpoint(args.get("resume", ""));
    std::cout << "resuming from iteration " << cli.resume->iteration
              << " (residual " << cli.resume->residual << ")\n";
  }
  return cli;
}

/// Copies the shared checkpointing knobs into a solver's option block and
/// arms cooperative cancellation: SIGINT/SIGTERM set a flag (see
/// support/signals.hpp) that the iteration driver polls each convergence
/// check, so an interrupted run stops at an iteration boundary — flushing a
/// final checkpoint when one is configured — instead of dying mid-write.
void apply_resilience(const ResilienceCli& cli, qs::solvers::IterationOptions& opts) {
  if (!cli.checkpoint_path.empty()) {
    opts.checkpoint_path = cli.checkpoint_path;
    opts.checkpoint_every = cli.checkpoint_every;
    opts.checkpoint_every_seconds = cli.checkpoint_every_seconds;
  }
  opts.should_stop = [] { return qs::shutdown_requested(); };
}

/// Converts a cancelled solver result into the Interrupted exit path.
void check_interrupted(qs::solvers::SolverFailure failure,
                       const ResilienceCli& cli) {
  if (failure == qs::solvers::SolverFailure::cancelled) {
    throw Interrupted{cli.checkpoint_path};
  }
}

/// Records how far a solve got before its outcome is judged, so a run that
/// ends in a failure or without converging still exports them.
void record_progress(unsigned iterations, double residual) {
  auto& m = qs::obs::metrics();
  m.set_value("iterations", iterations);
  m.set_value("residual", residual);
}

/// The exit path of a solve that failed or did not converge.
CliError solve_error(const std::string& what, qs::solvers::SolverFailure failure,
                     const std::string& detail = "") {
  if (failure == qs::solvers::SolverFailure::none) {
    return CliError{what + " did not converge", "not_converged"};
  }
  const std::string name(qs::solvers::to_string(failure));
  return CliError{what + " failed: " + name + detail, name};
}

/// Turns the span layer on when an observability export was requested.
/// Spans only exist in QS_ENABLE_TRACING builds; metrics values and the
/// residual tail are recorded in every build, so --metrics still produces a
/// useful file from a default build — but a --trace-json request against a
/// span-less binary gets a loud warning instead of a silently empty trace.
void setup_observability(const qs::ArgParser& args) {
  if (!args.has("trace-json") && !args.has("metrics")) return;
  if (qs::obs::compiled_in()) {
    qs::obs::set_enabled(true);
  } else if (args.has("trace-json")) {
    std::cerr << "warning: this binary was built without QS_ENABLE_TRACING; "
                 "the trace will contain no span events (configure with "
                 "--preset trace, or -DQS_ENABLE_TRACING=ON)\n";
  }
}

/// Writes the requested trace/metrics files, the metrics with a `verdict`
/// info key: converged on the success paths of run(), and on every
/// non-zero exit (main) not_converged, the failure's name, interrupted, or
/// error.
void export_observability(const qs::ArgParser& args, const std::string& verdict) {
  qs::obs::metrics().set_info("verdict", verdict);
  if (args.has("trace-json")) {
    const std::string path = args.get("trace-json", "");
    if (qs::obs::write_chrome_trace_file(path)) {
      std::cout << "trace written to " << path
                << " (load in ui.perfetto.dev)\n";
    } else {
      std::cerr << "warning: could not write trace to " << path << "\n";
    }
  }
  if (args.has("metrics")) {
    const std::string path = args.get("metrics", "");
    if (qs::obs::write_metrics_file(path)) {
      std::cout << "metrics written to " << path << "\n";
    } else {
      std::cerr << "warning: could not write metrics to " << path << "\n";
    }
  }
}

void warn_checkpoint_failures(unsigned failures) {
  if (failures > 0) {
    std::cerr << "warning: " << failures
              << " checkpoint write(s) failed; the run continued but the "
                 "on-disk state may be older than expected\n";
  }
}

qs::core::Landscape build_landscape(const qs::ArgParser& args, unsigned nu) {
  const std::string kind = args.get("landscape", "single-peak");
  if (kind == "single-peak") {
    return qs::core::Landscape::single_peak(nu, args.get_double("peak", 2.0, 1e-12, 1e12),
                                            args.get_double("rest", 1.0, 1e-12, 1e12));
  }
  if (kind == "linear") {
    return qs::core::Landscape::linear(nu, args.get_double("f0", 2.0, 1e-12, 1e12),
                                       args.get_double("fnu", 1.0, 1e-12, 1e12));
  }
  if (kind == "random") {
    const double c = args.get_double("c", 5.0, 1e-12, 1e12);
    return qs::core::Landscape::random(
        nu, c, args.get_double("sigma", 1.0, 1e-12, c / 2 * (1 - 1e-9)),
        static_cast<std::uint64_t>(args.get_long("seed", 1, 0, 1L << 62)));
  }
  if (kind == "flat") {
    return qs::core::Landscape::flat(nu, args.get_double("c", 1.0, 1e-12, 1e12));
  }
  if (kind == "load") {
    const std::string input = args.get("input", "");
    if (input.empty()) throw CliError{"--landscape load requires --input FILE"};
    auto loaded = qs::io::load_landscape(input);
    if (loaded.nu() != nu) {
      throw CliError{"loaded landscape has nu = " + std::to_string(loaded.nu()) +
                     ", but --nu is " + std::to_string(nu)};
    }
    return loaded;
  }
  throw CliError{"unknown landscape kind '" + kind + "'"};
}

void write_concentrations_csv(const std::string& path,
                              std::span<const double> x) {
  std::ofstream file(path);
  qs::CsvWriter csv(file);
  csv.header({"species", "hamming_class", "concentration"});
  for (qs::seq_t i = 0; i < x.size(); ++i) {
    csv.row().cell(std::size_t{i}).cell(std::size_t{qs::hamming_weight(i)}).cell(x[i]);
    csv.end_row();
  }
}

void write_classes_csv(const std::string& path, std::span<const double> classes) {
  std::ofstream file(path);
  qs::CsvWriter csv(file);
  csv.header({"class_k", "concentration"});
  for (std::size_t k = 0; k < classes.size(); ++k) {
    csv.row().cell(k).cell(classes[k]);
    csv.end_row();
  }
}

int run(const qs::ArgParser& args) {
  if (!args.only_known({"autotune", "block-size", "c", "checkpoint",
                         "checkpoint-every", "checkpoint-every-seconds",
                         "chunk-log2", "classes-csv", "csv", "dmax",
                         "exchange", "f0", "fnu", "help", "input",
                         "landscape", "metrics", "no-recover", "no-shift",
                         "nu", "p", "parallel", "peak", "ranks", "reduced",
                         "rest", "resume", "save-landscape", "seed", "sigma",
                         "solver", "tile-log2", "tolerance", "top",
                         "trace-json"})) {
    return 2;
  }
  if (args.has("help")) {
    print_usage();
    return 0;
  }
  // Xmvp(d) is the paper's baseline product, not a production solver: it
  // lives in the reference library, which this tool does not link.
  if (args.get("solver", "power") == "xmvp" || args.has("dmax")) {
    throw CliError{
        "--solver xmvp and --dmax are not qs_solve options: Xmvp(d) is a "
        "reference baseline; bench/fig3_solver_times times the power "
        "iteration on it"};
  }
  const unsigned nu = static_cast<unsigned>(args.get_long("nu", 0, 1, 1000));
  if (nu == 0) throw CliError{"--nu is required (try --help)"};
  const double p = args.get_double("p", 0.0, 1e-12, 0.5);
  if (p == 0.0) throw CliError{"--p is required (try --help)"};

  const double tolerance = args.get_double("tolerance", 1e-13, 1e-16, 1e-2);
  const long top = args.get_long("top", 5, 0, 1000);
  setup_observability(args);

  // Reduced path: error-class landscapes at any nu.
  if (args.has("reduced")) {
    if (args.has("checkpoint") || args.has("checkpoint-every") || args.has("resume")) {
      throw CliError{
          "--reduced does not support --checkpoint/--resume: the reduced "
          "solve is a direct (nu+1)x(nu+1) eigensolve, not a resumable "
          "iteration"};
    }
    const std::string kind = args.get("landscape", "single-peak");
    std::optional<qs::core::ErrorClassLandscape> ecl;
    if (kind == "single-peak") {
      ecl = qs::core::ErrorClassLandscape::single_peak(
          nu, args.get_double("peak", 2.0, 1e-12, 1e12),
          args.get_double("rest", 1.0, 1e-12, 1e12));
    } else if (kind == "linear") {
      ecl = qs::core::ErrorClassLandscape::linear(
          nu, args.get_double("f0", 2.0, 1e-12, 1e12),
          args.get_double("fnu", 1.0, 1e-12, 1e12));
    } else {
      throw CliError{"--reduced supports single-peak and linear landscapes"};
    }
    qs::Timer timer;
    const auto r = qs::solvers::solve_reduced(p, *ecl);
    std::cout << "reduced (nu+1)x(nu+1) solve: nu = " << nu << ", p = " << p
              << "\nlambda_0 = " << r.eigenvalue << "  (" << timer.seconds()
              << " s)\n\nclass concentrations:\n";
    const unsigned shown = std::min(nu, 20u);
    for (unsigned k = 0; k <= shown; ++k) {
      std::cout << "  [Gamma_" << k << "] = " << r.class_concentrations[k] << "\n";
    }
    if (shown < nu) std::cout << "  ... (" << (nu - shown) << " more classes)\n";
    if (args.has("classes-csv")) {
      write_classes_csv(args.get("classes-csv", ""), r.class_concentrations);
    }
    auto& m = qs::obs::metrics();
    m.set_info("tool", "qs_solve");
    m.set_info("solver", "reduced");
    m.set_value("nu", nu);
    m.set_value("p", p);
    m.set_value("eigenvalue", r.eigenvalue);
    export_observability(args, "converged");
    return 0;
  }

  if (nu > 24) {
    throw CliError{"full solves need --nu <= 24 (use --reduced for larger chains)"};
  }

  const auto model = qs::core::MutationModel::uniform(nu, p);
  const auto landscape = build_landscape(args, nu);
  if (args.has("save-landscape")) {
    qs::io::save_landscape(args.get("save-landscape", ""), landscape);
  }

  const qs::parallel::Engine* engine =
      args.has("parallel") ? &qs::parallel::parallel_engine() : nullptr;
  const std::string solver = args.get("solver", "power");

  qs::transforms::BlockedPlan plan;
  if (args.has("tile-log2")) {
    plan.tile_log2 = static_cast<unsigned>(args.get_long("tile-log2", 14, 4, 30));
  }
  if (args.has("chunk-log2")) {
    plan.chunk_log2 = static_cast<unsigned>(args.get_long("chunk-log2", 6, 1, 20));
  }
  if (args.has("autotune")) {
    const auto report = qs::transforms::autotune_blocked_plan(
        nu, engine != nullptr ? *engine : qs::parallel::serial_engine());
    plan = report.best;
    std::cout << "autotuned plan: tile_log2 = " << plan.tile_log2
              << ", chunk_log2 = " << plan.chunk_log2 << ", sv kernel = "
              << qs::transforms::resolved_sv_kernel_name(plan.sv_kernel)
              << " (max radix " << plan.sv_max_radix << "; "
              << report.timings.size() << " candidates, default "
              << report.timings.front().seconds << " s/matvec)\n";
  }

  double eigenvalue = 0.0;
  std::vector<double> concentrations;
  unsigned iterations = 0;
  double residual = 0.0;
  qs::solvers::ShiftScheduleReport schedule;
  std::optional<double> dropped_mass;  // the power iteration's
  const ResilienceCli resilience = parse_resilience(args);
  qs::install_shutdown_handlers();
  qs::Timer timer;

  if (args.has("ranks")) {
    if (solver != "power") {
      throw CliError{"--ranks supports --solver power only"};
    }
    const unsigned ranks =
        static_cast<unsigned>(args.get_long("ranks", 2, 1, 1u << 20));
    const std::string exchange = args.get("exchange", "lockstep");
    qs::distributed::DistributedPowerOptions opts;
    opts.tolerance = tolerance;
    opts.plan = plan;
    if (!args.has("no-shift")) {
      opts.shift = qs::core::conservative_shift(model, landscape);
    }
    if (exchange == "lockstep") {
      opts.exchange = qs::distributed::ExchangeKind::lockstep;
    } else if (exchange == "process") {
      opts.exchange = qs::distributed::ExchangeKind::process;
    } else {
      throw CliError{"--exchange must be lockstep or process"};
    }
    apply_resilience(resilience, opts);
    const auto r =
        resilience.resume
            ? qs::distributed::resume_distributed_power_iteration(
                  model, landscape, ranks, *resilience.resume, opts)
            : qs::distributed::distributed_power_iteration(model, landscape,
                                                           ranks, opts);
    warn_checkpoint_failures(r.checkpoint_failures);
    // Traffic totals are aggregated before the group disbands, so even a
    // cancelled run reports what it shipped up to the stop point.
    std::cout << "distributed: ranks = " << r.rank_count << " (" << exchange
              << "), block = " << (qs::sequence_count(nu) / r.rank_count)
              << " doubles, local levels = " << r.local_levels << "/" << nu
              << ", sv kernel = " << r.plan_kernel << "\n"
              << "traffic: " << r.traffic.messages << " messages, "
              << r.traffic.bytes_moved() << " bytes, "
              << r.traffic.allreduce_calls << " allreduces, overlap ratio = "
              << r.traffic.overlap_ratio() << "\n";
    record_progress(r.iterations, r.residual);
    check_interrupted(r.failure, resilience);
    if (r.failure != qs::solvers::SolverFailure::none || !r.converged) {
      throw solve_error("distributed solver", r.failure);
    }
    eigenvalue = r.eigenvalue;
    concentrations = r.eigenvector;
    iterations = r.iterations;
    residual = r.residual;
    schedule = r.shift_schedule;
    dropped_mass = r.dropped_mass;
  } else if (args.has("block-size") || solver == "block") {
    qs::solvers::BlockPowerOptions bopts;
    bopts.k = static_cast<unsigned>(args.get_long("block-size", 2, 1, 64));
    bopts.tolerance = std::max(tolerance, 1e-11);
    bopts.engine = engine;
    bopts.plan = plan;
    apply_resilience(resilience, bopts);
    const auto r = resilience.resume
                       ? qs::solvers::resume_top_k_spectrum(
                             model, landscape, *resilience.resume, bopts)
                       : qs::solvers::top_k_spectrum(model, landscape, bopts);
    warn_checkpoint_failures(r.checkpoint_failures);
    record_progress(r.iterations,
                    r.residuals.empty() ? r.residual : r.residuals.front());
    check_interrupted(r.failure, resilience);
    if (r.failure != qs::solvers::SolverFailure::none || !r.converged) {
      throw solve_error("block solver", r.failure);
    }
    std::cout << "leading eigenvalues (block subspace iteration, k = "
              << bopts.k << "):\n";
    for (std::size_t j = 0; j < r.eigenvalues.size(); ++j) {
      std::cout << "  lambda_" << j << " = " << r.eigenvalues[j]
                << "   residual = " << r.residuals[j] << "\n";
    }
    eigenvalue = r.eigenvalues.front();
    concentrations = r.eigenvectors.front();
    iterations = r.iterations;
    residual = r.residuals.front();
  } else if (solver == "power") {
    qs::solvers::SolveOptions opts;
    opts.tolerance = tolerance;
    opts.use_shift = !args.has("no-shift");
    opts.engine = engine;
    opts.plan = plan;
    opts.recover = !args.has("no-recover");
    apply_resilience(resilience, opts);
    if (resilience.resume) opts.resume = &*resilience.resume;
    const auto r = qs::solvers::solve(model, landscape, opts);
    record_progress(r.iterations, r.residual);
    check_interrupted(r.failure, resilience);
    if (r.failure != qs::solvers::SolverFailure::none) {
      throw solve_error("solver", r.failure,
                        " (after " + std::to_string(r.recovery_attempts) +
                            " recovery attempt(s))");
    }
    warn_checkpoint_failures(r.checkpoint_failures);
    if (!r.converged) throw solve_error("solver", r.failure);
    eigenvalue = r.eigenvalue;
    concentrations = r.concentrations;
    iterations = r.iterations;
    residual = r.residual;
    schedule = r.shift_schedule;
    dropped_mass = r.dropped_mass;
  } else if (solver == "arnoldi") {
    qs::solvers::ArnoldiOptions opts;
    opts.tolerance = tolerance;
    opts.engine = engine;
    apply_resilience(resilience, opts);
    const auto r = resilience.resume
                       ? qs::solvers::resume_arnoldi_dominant_w(
                             model, landscape, *resilience.resume, opts)
                       : qs::solvers::arnoldi_dominant_w(model, landscape, {}, opts);
    warn_checkpoint_failures(r.checkpoint_failures);
    record_progress(r.matvec_count, r.residual);
    check_interrupted(r.failure, resilience);
    if (r.failure != qs::solvers::SolverFailure::none || !r.converged) {
      throw solve_error("solver", r.failure);
    }
    eigenvalue = r.eigenvalue;
    concentrations = r.concentrations;
    iterations = r.matvec_count;
    residual = r.residual;
  } else {
    throw CliError{"unknown solver '" + solver + "'"};
  }
  const double seconds = timer.seconds();

  std::cout << "quasispecies solve: nu = " << nu << " (N = " << qs::sequence_count(nu)
            << "), p = " << p << ", solver = " << solver
            << (engine != nullptr ? " [parallel]" : "") << "\n"
            << "lambda_0 = " << eigenvalue << "   iterations = " << iterations
            << "   residual = " << residual << "   time = " << seconds << " s\n";
  if (schedule.engaged_at != 0) {
    std::cout << "shift schedule: from iteration " << schedule.engaged_at
              << ", decay " << schedule.decay << ", interval [" << schedule.lower
              << ", " << schedule.upper << "]";
    if (schedule.fallbacks != 0) {
      std::cout << ", " << schedule.fallbacks << " fallback(s)";
    }
    std::cout << "\n";
  }

  if (top > 0) {
    std::cout << "\ntop species:\n";
    std::vector<qs::seq_t> order(concentrations.size());
    for (qs::seq_t i = 0; i < order.size(); ++i) order[i] = i;
    std::partial_sort(order.begin(),
                      order.begin() + std::min<std::size_t>(top, order.size()),
                      order.end(), [&](qs::seq_t a, qs::seq_t b) {
                        return concentrations[a] > concentrations[b];
                      });
    for (long r = 0; r < std::min<long>(top, static_cast<long>(order.size())); ++r) {
      const qs::seq_t i = order[r];
      std::cout << "  X_" << i << " (class " << qs::hamming_weight(i)
                << "): " << concentrations[i] << "\n";
    }
  }

  const auto classes = qs::analysis::class_concentrations(nu, concentrations);
  std::cout << "\nclass concentrations:\n";
  for (unsigned k = 0; k <= nu; ++k) {
    std::cout << "  [Gamma_" << k << "] = " << classes[k] << "\n";
  }

  if (args.has("csv")) {
    write_concentrations_csv(args.get("csv", ""), concentrations);
  }
  if (args.has("classes-csv")) {
    write_classes_csv(args.get("classes-csv", ""), classes);
  }
  // End-of-run checkpoint: only the power iterate *is* the
  // concentration vector, so only there is this snapshot resumable.  The
  // other solvers persist their native state (restart vector, panel, shift)
  // through the driver's periodic checkpoints instead.
  if (args.has("checkpoint") && solver == "power") {
    qs::io::SolverCheckpoint state;
    state.iteration = iterations;
    state.eigenvalue = eigenvalue;
    state.residual = residual;
    state.solver_kind = qs::io::SolverKind::power;
    state.eigenvector = concentrations;
    qs::io::save_checkpoint(args.get("checkpoint", ""), state);
  }

  // Solve-level telemetry.  The facade's PlannedOperator records its own
  // plan provenance too; this stamps the tier for the solvers that take the
  // plan directly (block, arnoldi) and surfaces it on stdout
  // whenever a metrics snapshot was requested.
  if (args.has("metrics")) {
    std::cout << "kernel tier: "
              << qs::transforms::resolved_sv_kernel_name(plan.sv_kernel)
              << " (max radix " << plan.sv_max_radix << ")\n";
  }
  auto& m = qs::obs::metrics();
  m.set_info("tool", "qs_solve");
  m.set_info("solver", solver);
  m.set_info("engine", engine != nullptr ? "parallel" : "serial");
  m.set_info("simd_tier",
             qs::transforms::resolved_sv_kernel_name(plan.sv_kernel));
  m.set_value("plan.sv_max_radix", plan.sv_max_radix);
  m.set_value("nu", nu);
  m.set_value("p", p);
  m.set_value("eigenvalue", eigenvalue);
  m.set_value("iterations", iterations);
  m.set_value("residual", residual);
  m.set_value("solve_seconds", seconds);
  if (dropped_mass.has_value()) m.set_value("dropped_mass", *dropped_mass);
  if (schedule.engaged_at != 0) {
    const auto text = [](double v) {
      std::ostringstream out;
      out << std::setprecision(17) << v;
      return out.str();
    };
    m.set_info("shift_schedule.engaged_at", std::to_string(schedule.engaged_at));
    m.set_info("shift_schedule.decay", text(schedule.decay));
    m.set_info("shift_schedule.interval",
               "[" + text(schedule.lower) + ", " + text(schedule.upper) + "]");
    m.set_info("shift_schedule.fallbacks", std::to_string(schedule.fallbacks));
  }
  export_observability(args, "converged");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const qs::ArgParser args(argc, argv);
  std::string verdict;
  int code = 0;
  try {
    code = run(args);
    if (code == 0) return 0;
    verdict = "error";
  } catch (const Interrupted& e) {
    std::cerr << "interrupted by signal "
              << (qs::shutdown_signal() == SIGTERM ? "SIGTERM" : "SIGINT")
              << "; the solve stopped at an iteration boundary";
    if (!e.checkpoint_path.empty()) {
      std::cerr << " and flushed a final checkpoint to " << e.checkpoint_path
                << " (restart with --resume " << e.checkpoint_path << ")";
    }
    std::cerr << "\n";
    verdict = "interrupted";
    code = 130;
  } catch (const CliError& e) {
    std::cerr << "error: " << e.message << "\n";
    verdict = e.verdict;
    code = 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    verdict = "error";
    code = 1;
  }
  // Telemetry of a run that did not succeed is still what explains it.
  export_observability(args, verdict);
  return code;
}
