// qs_sweep — error-rate sweeps and threshold detection from the command
// line (Figure-1-style studies on arbitrary parameters).
//
//   qs_sweep --nu 20 --landscape single-peak --peak 2 --from 0.001 --to 0.09
//            --points 120 --csv sweep.csv
//   qs_sweep --nu 50 --landscape linear --f0 2 --fnu 1 --threshold
//   qs_sweep --nu 14 --landscape random --c 5 --sigma 1 --seed 3
//            --from 0.005 --to 0.05 --points 10      # full solver per point
//
// Error-class landscapes (single-peak / linear) ride on the exact reduced
// solver and support huge nu; the random landscape runs the warm-started
// Fmmp power iteration per grid point.
#include <fstream>
#include <iostream>

#include "quasispecies.hpp"
#include "support/args.hpp"

namespace {

void print_usage() {
  std::cout <<
      "qs_sweep — error-rate sweeps of the quasispecies model\n\n"
      "  --nu N               chain length\n"
      "  --landscape KIND     single-peak (--peak/--rest), linear (--f0/--fnu),\n"
      "                       or random (--c/--sigma/--seed; full solver, nu <= 20)\n"
      "  --from P --to P      error-rate bracket (default 0.001 .. 0.09)\n"
      "  --points K           grid points (default 60)\n"
      "  --csv FILE           write the sweep as CSV (default: stdout)\n"
      "  --threshold          also locate p_max by bisection (error-class only)\n"
      "  --trace-json FILE    write a Chrome trace-event JSON of the sweep\n"
      "                       (span events need a QS_ENABLE_TRACING build)\n"
      "  --metrics FILE       write an aggregate metrics snapshot (JSON, or\n"
      "                       CSV when FILE ends in .csv)\n"
      "  --help               this text\n";
}

struct CliError {
  std::string message;
};

/// Shared --trace-json/--metrics handling (same flags as qs_solve).
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
    if (!args.only_known({"c", "csv", "f0", "fnu", "from", "help",
                           "landscape", "metrics", "nu", "peak", "points",
                           "rest", "seed", "sigma", "threshold", "to",
                           "trace-json"})) {
      return 2;
    }
    if (args.has("help")) {
      print_usage();
      return 0;
    }
    const unsigned nu = static_cast<unsigned>(args.get_long("nu", 0, 1, 1000));
    if (nu == 0) throw CliError{"--nu is required (try --help)"};
    const double from = args.get_double("from", 0.001, 1e-9, 0.5);
    const double to = args.get_double("to", 0.09, from, 0.5);
    const std::size_t points =
        static_cast<std::size_t>(args.get_long("points", 60, 2, 100000));
    const std::string kind = args.get("landscape", "single-peak");
    const auto grid = qs::analysis::error_rate_grid(from, to, points);
    setup_observability(args);

    qs::analysis::SweepResult sweep;
    std::optional<qs::core::ErrorClassLandscape> ecl;
    if (kind == "single-peak") {
      ecl = qs::core::ErrorClassLandscape::single_peak(
          nu, args.get_double("peak", 2.0, 1e-12, 1e12),
          args.get_double("rest", 1.0, 1e-12, 1e12));
    } else if (kind == "linear") {
      ecl = qs::core::ErrorClassLandscape::linear(
          nu, args.get_double("f0", 2.0, 1e-12, 1e12),
          args.get_double("fnu", 1.0, 1e-12, 1e12));
    }

    qs::Timer timer;
    if (ecl.has_value()) {
      sweep = qs::analysis::sweep_error_rates(*ecl, grid);
    } else if (kind == "random") {
      if (nu > 20) throw CliError{"full-solver sweeps need --nu <= 20"};
      const double c = args.get_double("c", 5.0, 1e-12, 1e12);
      const auto landscape = qs::core::Landscape::random(
          nu, c, args.get_double("sigma", 1.0, 1e-12, c / 2 * (1 - 1e-9)),
          static_cast<std::uint64_t>(args.get_long("seed", 1, 0, 1L << 62)));
      sweep = qs::analysis::sweep_error_rates(landscape, grid);
    } else {
      throw CliError{"unknown landscape kind '" + kind + "'"};
    }
    const double seconds = timer.seconds();

    if (args.has("csv")) {
      std::ofstream file(args.get("csv", ""));
      qs::analysis::write_sweep_csv(sweep, file);
      std::cout << "wrote " << grid.size() << "-point sweep to "
                << args.get("csv", "") << " (" << seconds << " s)\n";
    } else {
      qs::analysis::write_sweep_csv(sweep, std::cout);
    }

    if (args.has("threshold")) {
      if (!ecl.has_value()) {
        throw CliError{"--threshold requires an error-class landscape"};
      }
      const auto pmax = qs::analysis::find_error_threshold(*ecl);
      if (pmax.has_value()) {
        std::cout << "error threshold p_max = " << *pmax << "\n";
      } else {
        std::cout << "no error threshold in the bracket\n";
      }
      std::cout << "transition kink strength = "
                << qs::analysis::transition_kink(*ecl, from, to) << "\n";
    }

    auto& m = qs::obs::metrics();
    m.set_info("tool", "qs_sweep");
    m.set_info("landscape", kind);
    m.set_value("nu", nu);
    m.set_value("points", static_cast<double>(grid.size()));
    m.set_value("p_from", from);
    m.set_value("p_to", to);
    m.set_value("sweep_seconds", seconds);
    export_observability(args);
    return 0;
  } catch (const CliError& e) {
    std::cerr << "error: " << e.message << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
