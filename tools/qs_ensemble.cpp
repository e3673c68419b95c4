// qs_ensemble — panel-batched finite-population replica ensembles from the
// command line.
//
//   qs_ensemble --nu 10 --p 0.03 --pop 5000 --replicas 32 --generations 400
//   qs_ensemble --nu 8 --pop 1000 --replicas 16 --p-from 0.01 --p-to 0.11
//               --p-points 6 --ensemble-out smearing.json
//
// Runs R independent Wright-Fisher (or Moran) replicas with their
// per-generation mutation products batched through the panel Fmmp path,
// and reports the ensemble mean / spread of the species frequencies
// against the deterministic (infinite-population) quasispecies.  With a
// --p-from/--p-to grid it sweeps the error rate — the finite-N
// error-threshold smearing experiment: where the deterministic master
// concentration drops as a step at p_max, the finite-N ensemble mean
// crosses over smoothly, with a cross-replica spread that peaks near the
// threshold.
#include <fstream>
#include <iostream>
#include <vector>

#include "quasispecies.hpp"
#include "support/args.hpp"

namespace {

void print_usage() {
  std::cout <<
      "qs_ensemble — finite-population replica ensembles, panel-batched\n\n"
      "  --nu N             chain length (<= 20 for ensembles)\n"
      "  --p RATE           per-position error rate (single run), or\n"
      "  --p-from A --p-to B --p-points K   error-rate sweep (smearing)\n"
      "  --pop SIZE         population size per replica (default 10000)\n"
      "  --replicas R       independent replicas (default 16)\n"
      "  --generations G    generations per replica (default 400; the second\n"
      "                     half is time-averaged unless --window is given)\n"
      "  --window W         explicit time-averaging window\n"
      "  --process KIND     wright-fisher (default) or moran\n"
      "  --backend KIND     serial (default) or thread-pool\n"
      "  --panel-width M    columns per interleaved panel (default 8)\n"
      "  --sequential       per-replica single-vector products (reference\n"
      "                     path; the default is the batched panel path)\n"
      "  --landscape KIND   single-peak (--peak/--rest, default 2/1) or\n"
      "                     random (--c/--sigma)\n"
      "  --seed S           root seed of the per-replica RNG streams\n"
      "  --start KIND       master (default) or uniform\n"
      "  --ensemble-out F   machine-readable JSON of the ensemble statistics\n"
      "  --trace-json FILE  Chrome trace-event JSON of the run\n"
      "  --metrics FILE     aggregate metrics snapshot (JSON/CSV)\n"
      "  --help             this text\n";
}

struct CliError {
  std::string message;
};

void setup_observability(const qs::ArgParser& args) {
  if (!args.has("trace-json") && !args.has("metrics")) return;
  if (qs::obs::compiled_in()) {
    qs::obs::set_enabled(true);
  } else if (args.has("trace-json")) {
    std::cerr << "warning: this binary was built without QS_ENABLE_TRACING; "
                 "the trace will contain no span events\n";
  }
}

void export_observability(const qs::ArgParser& args) {
  if (args.has("trace-json") &&
      !qs::obs::write_chrome_trace_file(args.get("trace-json", ""))) {
    std::cerr << "warning: could not write trace to "
              << args.get("trace-json", "") << "\n";
  }
  if (args.has("metrics") &&
      !qs::obs::write_metrics_file(args.get("metrics", ""))) {
    std::cerr << "warning: could not write metrics to "
              << args.get("metrics", "") << "\n";
  }
}

struct SweepPoint {
  double p = 0.0;
  double deterministic_master = 0.0;
  double deterministic_eigenvalue = 0.0;
  qs::stochastic::EnsembleStatistics stats;
  double seconds = 0.0;
};

void write_ensemble_json(const std::string& path, unsigned nu,
                         const qs::stochastic::EnsembleOptions& options,
                         const std::string& backend,
                         const std::vector<SweepPoint>& points) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: could not write " << path << "\n";
    return;
  }
  out.precision(12);
  out << "{\n  \"tool\": \"qs_ensemble\",\n  \"nu\": " << nu
      << ",\n  \"replicas\": " << options.replicas
      << ",\n  \"population\": " << options.population_size
      << ",\n  \"panel_width\": " << options.panel_width
      << ",\n  \"backend\": \"" << backend << "\",\n  \"process\": \""
      << (options.process == qs::stochastic::EnsembleProcess::moran
              ? "moran"
              : "wright-fisher")
      << "\",\n  \"seed\": " << options.seed << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& pt = points[i];
    out << "    {\"p\": " << pt.p
        << ", \"deterministic_master\": " << pt.deterministic_master
        << ", \"deterministic_eigenvalue\": " << pt.deterministic_eigenvalue
        << ", \"master_mean\": " << pt.stats.master_mean
        << ", \"master_std\": " << pt.stats.master_std
        << ", \"mean_fitness\": " << pt.stats.mean_fitness
        << ", \"seconds\": " << pt.seconds << ", \"class_mean\": [";
    for (std::size_t k = 0; k < pt.stats.class_mean.size(); ++k) {
      out << pt.stats.class_mean[k]
          << (k + 1 < pt.stats.class_mean.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const qs::ArgParser args(argc, argv);
    if (!args.only_known({"backend", "c", "ensemble-out", "generations",
                           "help", "landscape", "metrics", "nu", "p",
                           "p-from", "p-points", "p-to", "panel-width",
                           "peak", "pop", "process", "replicas", "rest",
                           "seed", "sequential", "sigma", "start",
                           "trace-json", "window"})) {
      return 2;
    }
    if (args.has("help")) {
      print_usage();
      return 0;
    }
    const unsigned nu = static_cast<unsigned>(args.get_long("nu", 0, 1, 20));
    if (nu == 0) throw CliError{"--nu is required (try --help)"};

    std::vector<double> p_grid;
    if (args.has("p-from") || args.has("p-to")) {
      const double from = args.get_double("p-from", 0.01, 1e-12, 0.5);
      const double to = args.get_double("p-to", 0.1, from, 0.5);
      const long points = args.get_long("p-points", 5, 2, 1000);
      for (long i = 0; i < points; ++i) {
        p_grid.push_back(from + (to - from) * static_cast<double>(i) /
                                    static_cast<double>(points - 1));
      }
    } else {
      const double p = args.get_double("p", 0.0, 1e-12, 0.5);
      if (p == 0.0) {
        throw CliError{"--p (or --p-from/--p-to) is required (try --help)"};
      }
      p_grid.push_back(p);
    }

    qs::stochastic::EnsembleOptions options;
    options.replicas =
        static_cast<std::size_t>(args.get_long("replicas", 16, 1, 100000));
    options.population_size =
        static_cast<std::uint64_t>(args.get_long("pop", 10000, 2, 100000000));
    options.panel_width =
        static_cast<std::size_t>(args.get_long("panel-width", 8, 1, 64));
    options.seed = static_cast<std::uint64_t>(args.get_long("seed", 1, 0, 1L << 62));
    options.start_uniform = args.get("start", "master") == "uniform";
    const std::string process = args.get("process", "wright-fisher");
    if (process == "moran") {
      options.process = qs::stochastic::EnsembleProcess::moran;
    } else if (process != "wright-fisher") {
      throw CliError{"unknown process '" + process + "'"};
    }

    const auto generations =
        static_cast<std::uint64_t>(args.get_long("generations", 400, 1, 10000000));
    const auto window = static_cast<std::uint64_t>(args.get_long(
        "window", static_cast<long>(generations / 2), 0,
        static_cast<long>(generations)));
    const bool batched = !args.has("sequential");

    const std::string backend_name = args.get("backend", "serial");
    qs::parallel::Backend backend = qs::parallel::Backend::serial;
    if (backend_name == "thread-pool") {
      backend = qs::parallel::Backend::thread_pool;
    } else if (backend_name != "serial") {
      throw CliError{"unknown backend '" + backend_name + "'"};
    }
    const auto engine = qs::parallel::make_engine(backend);
    setup_observability(args);

    const std::string kind = args.get("landscape", "single-peak");
    auto landscape = [&]() -> qs::core::Landscape {
      if (kind == "single-peak") {
        return qs::core::Landscape::single_peak(
            nu, args.get_double("peak", 2.0, 1e-12, 1e12),
            args.get_double("rest", 1.0, 1e-12, 1e12));
      }
      if (kind == "random") {
        const double c = args.get_double("c", 5.0, 1e-12, 1e12);
        return qs::core::Landscape::random(
            nu, c, args.get_double("sigma", 1.0, 1e-12, c / 2 * (1 - 1e-9)),
            options.seed);
      }
      throw CliError{"unknown landscape kind '" + kind + "'"};
    }();

    std::cout << "ensemble: nu = " << nu << ", N_pop = " << options.population_size
              << ", R = " << options.replicas << " replicas, " << generations
              << " generations (window " << window << "), process = " << process
              << ", backend = " << engine->name() << " x" << engine->concurrency()
              << ", " << (batched ? "panel-batched" : "sequential")
              << " (m = " << options.panel_width << ")\n\n";

    qs::TextTable table({"p", "det [G0]", "ens mean [G0]", "ens std [G0]",
                        "mean fitness", "det lambda0", "[s]"});
    // SIGINT/SIGTERM stop the replica loop at the next generation boundary;
    // the completed generations still produce statistics and the partial
    // sweep is flushed to --ensemble-out before exiting nonzero.
    qs::install_shutdown_handlers();
    bool interrupted = false;
    std::uint64_t interrupted_after = 0;
    std::vector<SweepPoint> points;
    for (double p : p_grid) {
      const auto model = qs::core::MutationModel::uniform(nu, p);
      const auto deterministic = qs::solvers::solve(model, landscape);

      qs::stochastic::ReplicaEnsemble ensemble(model, landscape, options,
                                               engine.get());
      qs::Timer timer;
      ensemble.run(generations, window, batched,
                   [] { return qs::shutdown_requested(); });
      SweepPoint pt;
      pt.seconds = timer.seconds();
      pt.p = p;
      pt.deterministic_master = deterministic.class_concentrations[0];
      pt.deterministic_eigenvalue = deterministic.eigenvalue;
      pt.stats = ensemble.statistics();
      ensemble.record_metrics(pt.stats);
      table.add_row_numeric(
          qs::format_short(p),
          {pt.deterministic_master, pt.stats.master_mean, pt.stats.master_std,
           pt.stats.mean_fitness, pt.deterministic_eigenvalue, pt.seconds});
      points.push_back(std::move(pt));
      if (ensemble.cancelled()) {
        interrupted = true;
        interrupted_after = ensemble.generations_completed();
        break;
      }
    }
    table.print(std::cout);
    if (p_grid.size() > 1) {
      std::cout << "\nexpected shape: the deterministic [G0] column steps down "
                   "near p_max while the ensemble mean crosses over smoothly; "
                   "the cross-replica std peaks near the threshold (finite-N "
                   "smearing).\n";
    }

    if (args.has("ensemble-out")) {
      write_ensemble_json(args.get("ensemble-out", ""), nu, options,
                          std::string(engine->name()), points);
    }

    auto& m = qs::obs::metrics();
    m.set_info("tool", "qs_ensemble");
    m.set_value("nu", nu);
    m.set_value("generations", static_cast<double>(generations));
    m.set_value("sweep_points", static_cast<double>(points.size()));
    export_observability(args);
    if (interrupted) {
      std::cerr << "interrupted by signal after " << interrupted_after
                << " generation(s) at p = " << points.back().p << "; the "
                << points.size() << " completed point(s) were written\n";
      return 130;
    }
    return 0;
  } catch (const CliError& e) {
    std::cerr << "error: " << e.message << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
