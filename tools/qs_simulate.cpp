// qs_simulate — finite-population Wright-Fisher / Moran simulation from the
// command line.
//
//   qs_simulate --nu 10 --p 0.03 --pop 10000 --generations 500
//   qs_simulate --nu 8 --p 0.05 --pop 500 --process moran --generations 200
//               --landscape single-peak --peak 3 --trace trace.csv
//
// Prints the time-averaged class concentrations next to the deterministic
// (infinite-population) quasispecies for comparison; --trace writes the
// per-generation master-class trajectory as CSV.
#include <fstream>
#include <iostream>

#include "quasispecies.hpp"
#include "support/args.hpp"

namespace {

void print_usage() {
  std::cout <<
      "qs_simulate — finite-population quasispecies dynamics\n\n"
      "  --nu N             chain length (<= 20 for simulation)\n"
      "  --p RATE           per-position error rate\n"
      "  --pop SIZE         population size (default 10000)\n"
      "  --generations G    generations to run (default 500; the second half\n"
      "                     is time-averaged)\n"
      "  --process KIND     wright-fisher (default) or moran\n"
      "  --landscape KIND   single-peak (--peak/--rest, default 2/1) or\n"
      "                     random (--c/--sigma/--seed)\n"
      "  --seed S           RNG seed (default 1)\n"
      "  --start KIND       master (default) or uniform\n"
      "  --trace FILE       per-generation CSV of t, x0, mean fitness\n"
      "  --trace-json FILE  Chrome trace-event JSON of the run (distinct from\n"
      "                     --trace; span events need a QS_ENABLE_TRACING build)\n"
      "  --metrics FILE     aggregate metrics snapshot (JSON, or CSV when\n"
      "                     FILE ends in .csv)\n"
      "  --help             this text\n";
}

struct CliError {
  std::string message;
};

/// Shared --trace-json/--metrics handling (same flags as qs_solve; note the
/// pre-existing --trace flag is the per-generation CSV, not this).
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

}  // namespace

int main(int argc, char** argv) {
  try {
    const qs::ArgParser args(argc, argv);
    if (!args.only_known({"c", "generations", "help", "landscape", "metrics",
                           "nu", "p", "peak", "pop", "process", "rest",
                           "seed", "sigma", "start", "trace", "trace-json"})) {
      return 2;
    }
    if (args.has("help")) {
      print_usage();
      return 0;
    }
    const unsigned nu = static_cast<unsigned>(args.get_long("nu", 0, 1, 20));
    if (nu == 0) throw CliError{"--nu is required (try --help)"};
    const double p = args.get_double("p", 0.0, 1e-12, 0.5);
    if (p == 0.0) throw CliError{"--p is required (try --help)"};
    const auto pop_size =
        static_cast<std::uint64_t>(args.get_long("pop", 10000, 2, 100000000));
    const auto generations =
        static_cast<std::uint64_t>(args.get_long("generations", 500, 1, 10000000));
    const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1, 0, 1L << 62));
    setup_observability(args);

    const auto model = qs::core::MutationModel::uniform(nu, p);
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
            static_cast<std::uint64_t>(args.get_long("seed", 1, 0, 1L << 62)));
      }
      throw CliError{"unknown landscape kind '" + kind + "'"};
    }();

    const std::string start_kind = args.get("start", "master");
    auto population = (start_kind == "uniform")
                          ? qs::stochastic::Population::uniform(nu, pop_size)
                          : qs::stochastic::Population::monomorphic(nu, pop_size);

    // Deterministic reference.
    const auto deterministic = qs::solvers::solve(model, landscape);

    const std::string process = args.get("process", "wright-fisher");
    std::ofstream trace_file;
    const bool tracing = args.has("trace");
    if (tracing) {
      trace_file.open(args.get("trace", ""));
      trace_file << "generation,x0,mean_fitness\n";
    }

    std::vector<double> average(population.counts().size(), 0.0);
    const std::uint64_t average_start = generations / 2;
    qs::Timer timer;

    auto record = [&](std::uint64_t g) {
      const auto x = population.frequencies();
      if (tracing) {
        trace_file << g << ',' << x[0] << ','
                   << qs::analysis::mean_fitness(landscape, x) << '\n';
      }
      if (g >= average_start) {
        for (std::size_t i = 0; i < x.size(); ++i) {
          average[i] += x[i] / static_cast<double>(generations - average_start);
        }
      }
    };

    if (process == "wright-fisher") {
      qs::stochastic::WrightFisher wf(model, landscape, seed);
      for (std::uint64_t g = 1; g <= generations; ++g) {
        wf.step(population);
        record(g);
      }
    } else if (process == "moran") {
      qs::stochastic::Moran moran(model, landscape, seed);
      for (std::uint64_t g = 1; g <= generations; ++g) {
        moran.run(population, pop_size);  // one generation = N_pop events
        record(g);
      }
    } else {
      throw CliError{"unknown process '" + process + "'"};
    }
    const double seconds = timer.seconds();

    std::cout << process << ": nu = " << nu << ", p = " << p << ", N_pop = "
              << pop_size << ", " << generations << " generations (" << seconds
              << " s)\n\n"
              << "class  simulated (time avg)  deterministic (infinite N)\n";
    const auto sim_classes = qs::analysis::class_concentrations(nu, average);
    for (unsigned k = 0; k <= nu; ++k) {
      std::printf("  %2u    %-20.6f  %.6f\n", k, sim_classes[k],
                  deterministic.class_concentrations[k]);
    }
    std::cout << "\nsimulated mean fitness: "
              << qs::analysis::mean_fitness(landscape, average)
              << "   deterministic lambda_0: " << deterministic.eigenvalue << "\n";

    auto& m = qs::obs::metrics();
    m.set_info("tool", "qs_simulate");
    m.set_info("process", process);
    m.set_value("nu", nu);
    m.set_value("p", p);
    m.set_value("pop", static_cast<double>(pop_size));
    m.set_value("generations", static_cast<double>(generations));
    m.set_value("sim_seconds", seconds);
    m.set_value("mean_fitness", qs::analysis::mean_fitness(landscape, average));
    m.set_value("deterministic_eigenvalue", deterministic.eigenvalue);
    export_observability(args);
    return 0;
  } catch (const CliError& e) {
    std::cerr << "error: " << e.message << "\n";
    return 2;
  } catch (const qs::usage_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
