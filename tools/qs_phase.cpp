// qs_phase — two-dimensional phase diagram of the error threshold.
//
//   qs_phase --nu 50 --sigma-from 1.2 --sigma-to 10 --sigma-points 20
//            --csv phase.csv
//
// For a grid of selective advantages sigma (single-peak landscapes), the
// critical error rate p_max(sigma) is located with the exact reduced solver
// and printed next to the classic infinite-chain prediction
// p_max ~ ln(sigma) / nu.  The CSV has one row per sigma; with --alphabet A
// the scan runs over the A-letter model instead (threshold vs alphabet
// size).
#include <cmath>
#include <fstream>
#include <iostream>

#include "quasispecies.hpp"
#include "support/args.hpp"

namespace {

void print_usage() {
  std::cout <<
      "qs_phase — error-threshold phase boundary p_max(sigma)\n\n"
      "  --nu N               chain length (reduced solver; up to 1000)\n"
      "  --sigma-from S       smallest peak advantage (default 1.2)\n"
      "  --sigma-to S         largest peak advantage (default 10)\n"
      "  --sigma-points K     grid points (default 15)\n"
      "  --alphabet A         alphabet size (default 2 = binary)\n"
      "  --uniformity-tol T   uniformity tolerance for the detector\n"
      "                       (default 0.01)\n"
      "  --csv FILE           write the boundary as CSV\n"
      "  --help               this text\n";
}

struct CliError {
  std::string message;
};

/// p_max for the A-letter single-peak model by bisection on the master
/// class concentration dropping below `tol`-uniformity.
double locate_threshold(unsigned nu, unsigned alphabet, double sigma, double tol) {
  const auto phi = qs::core::ErrorClassLandscape::single_peak(nu, sigma, 1.0);
  const double random_replication =
      static_cast<double>(alphabet - 1) / static_cast<double>(alphabet);
  double lo = 1e-6, hi = random_replication;
  auto ordered = [&](double mu) {
    const auto r = qs::solvers::solve_reduced_alphabet(mu, alphabet, phi);
    // Uniform share of the master class is ~A^-nu; "ordered" means the
    // master still holds more than `tol` of the population.
    return r.class_concentrations[0] > tol;
  };
  if (!ordered(lo)) return 0.0;  // no ordered phase at all
  for (int step = 0; step < 40; ++step) {
    const double mid = 0.5 * (lo + hi);
    (ordered(mid) ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const qs::ArgParser args(argc, argv);
    if (!args.only_known({"alphabet", "csv", "help", "nu", "sigma-from",
                           "sigma-points", "sigma-to", "uniformity-tol"})) {
      return 2;
    }
    if (args.has("help")) {
      print_usage();
      return 0;
    }
    const unsigned nu = static_cast<unsigned>(args.get_long("nu", 50, 2, 1000));
    const unsigned alphabet =
        static_cast<unsigned>(args.get_long("alphabet", 2, 2, 64));
    const double sigma_from = args.get_double("sigma-from", 1.2, 1.0 + 1e-9, 1e6);
    const double sigma_to = args.get_double("sigma-to", 10.0, sigma_from, 1e6);
    const auto points =
        static_cast<std::size_t>(args.get_long("sigma-points", 15, 2, 10000));
    const double tol = args.get_double("uniformity-tol", 0.01, 1e-12, 0.5);

    std::ofstream csv_file;
    std::ostream* out = &std::cout;
    if (args.has("csv")) {
      csv_file.open(args.get("csv", ""));
      out = &csv_file;
    }
    qs::CsvWriter csv(*out);
    csv.header({"sigma", "p_max", "theory_ln_sigma_over_nu"});

    std::cout << "phase boundary, nu = " << nu << ", alphabet = " << alphabet
              << "\n  sigma     p_max       ln(sigma)/nu\n";
    for (std::size_t i = 0; i < points; ++i) {
      // Log-spaced sigma grid (the boundary is logarithmic in sigma).
      const double t = static_cast<double>(i) / static_cast<double>(points - 1);
      const double sigma = sigma_from * std::pow(sigma_to / sigma_from, t);
      const double pmax = locate_threshold(nu, alphabet, sigma, tol);
      const double theory = std::log(sigma) / static_cast<double>(nu);
      std::printf("  %-8.4g  %-10.6f  %.6f\n", sigma, pmax, theory);
      csv.row().cell(sigma).cell(pmax).cell(theory);
      csv.end_row();
    }
    if (args.has("csv")) {
      std::cout << "wrote " << points << "-row boundary to " << args.get("csv", "")
                << "\n";
    }
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
