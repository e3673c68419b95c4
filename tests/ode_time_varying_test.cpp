// Unit tests for the time-dependent error rate dynamics.
#include "ode/time_varying.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/vector_ops.hpp"
#include "ode/integrators.hpp"
#include "ode/replicator.hpp"
#include "reference/butterfly.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace qs::ode {
namespace {

TEST(TimeVarying, ConstantRateMatchesAutonomousODE) {
  const unsigned nu = 7;
  const double p = 0.03;
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);

  const TimeVaryingReplicatorODE varying(landscape, [p](double) { return p; });
  const auto model = core::MutationModel::uniform(nu, p);
  const ReplicatorODE autonomous(model, landscape);

  std::vector<double> x_var(128, 0.0), x_auto(128, 0.0);
  x_var[0] = x_auto[0] = 1.0;
  double t = 0.0;
  for (int s = 0; s < 200; ++s) {
    rk4_step(varying, t, x_var, 0.05);
    rk4_step(autonomous, x_auto, 0.05);
  }
  EXPECT_NEAR(t, 10.0, 1e-12);
  EXPECT_LT(linalg::max_abs_diff(x_var, x_auto), 1e-12);
}

TEST(TimeVarying, DerivativeMatchesAlgorithmOneBitForBit) {
  // The derivative applies Q(p(t)) with the banded kernel over stack-staged
  // factors; spelled out with the paper's Algorithm 1 it gives the same
  // doubles, from a one-site chain up.
  const auto rate = [](double t) { return 0.01 + 0.02 * t; };
  for (const unsigned nu : {1u, 2u, 3u, 5u, 9u, 13u}) {
    const std::size_t n = std::size_t{1} << nu;
    const auto landscape = core::Landscape::random(nu, 5.0, 1.0, 40 + nu);
    const TimeVaryingReplicatorODE ode(landscape, rate);
    std::vector<double> x(n);
    Xoshiro256 rng(nu);
    for (double& v : x) v = rng.uniform(0.0, 1.0);
    for (const double t : {0.0, 0.5, 2.0}) {
      std::vector<double> dx(n), expected(n);
      const double phi = ode.derivative(t, x, dx);

      const auto f = landscape.values();
      double expected_phi = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        expected[i] = f[i] * x[i];
        expected_phi += expected[i];
      }
      transforms::apply_uniform_butterfly(expected, rate(t));
      for (std::size_t i = 0; i < n; ++i) expected[i] -= expected_phi * x[i];

      EXPECT_EQ(phi, expected_phi) << "nu " << nu << " t " << t;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(dx[i], expected[i]) << "nu " << nu << " t " << t << " i " << i;
      }
    }
  }
}

TEST(TimeVarying, MassStaysOnTheSimplex) {
  const auto landscape = core::Landscape::random(8, 5.0, 1.0, 3);
  const TimeVaryingReplicatorODE ode(landscape, [](double t) {
    return 0.01 + 0.02 * std::sin(t) * std::sin(t);  // oscillating dosing
  });
  std::vector<double> x(256, 1.0 / 256.0);
  double t = 0.0;
  integrate(ode, t, x, 0.05, 400);
  EXPECT_NEAR(linalg::sum(std::span<const double>(x)), 1.0, 1e-12);
  for (double v : x) EXPECT_GE(v, 0.0);
}

TEST(TimeVarying, DrugRampCrossesTheErrorThreshold) {
  // p ramps from deep inside the ordered phase to beyond p_max: the master
  // class must collapse during the ramp and the population end near
  // uniformity.
  const unsigned nu = 10;
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  const double p_low = 0.01, p_high = 0.25;
  const double ramp_start = 20.0, ramp_end = 60.0;
  const TimeVaryingReplicatorODE ode(landscape, [=](double t) {
    if (t <= ramp_start) return p_low;
    if (t >= ramp_end) return p_high;
    return p_low + (p_high - p_low) * (t - ramp_start) / (ramp_end - ramp_start);
  });

  std::vector<double> x(sequence_count(nu), 0.0);
  x[0] = 1.0;
  double t = 0.0;
  integrate(ode, t, x, 0.02, 1000);  // settle in the ordered phase
  const double ordered_master = x[0];
  EXPECT_GT(ordered_master, 0.5);

  integrate(ode, t, x, 0.02, 4000);  // through the ramp and beyond
  EXPECT_LT(x[0], 0.01);
  const double uniform_level = 1.0 / static_cast<double>(sequence_count(nu));
  EXPECT_NEAR(x[0], uniform_level, 20.0 * uniform_level);
}

TEST(TimeVarying, DrugWashoutRestoresTheQuasispecies) {
  // A pulse above threshold followed by washout: the population must
  // recover to the pre-treatment stationary state (the dynamics are
  // globally attracting for fixed p).
  const unsigned nu = 8;
  const double p_natural = 0.02;
  const auto landscape = core::Landscape::single_peak(nu, 2.0, 1.0);
  const auto model = core::MutationModel::uniform(nu, p_natural);
  const auto stationary = solvers::solve(model, landscape);
  ASSERT_TRUE(stationary.converged);

  const TimeVaryingReplicatorODE ode(landscape, [=](double t) {
    return (t > 10.0 && t < 30.0) ? 0.3 : p_natural;  // pulse
  });
  std::vector<double> x = stationary.concentrations;
  double t = 0.0;
  integrate(ode, t, x, 0.02, 1000);  // into the pulse
  EXPECT_LT(x[0], 0.1);              // collapsed under the drug
  integrate(ode, t, x, 0.02, 20000);  // long washout
  EXPECT_LT(linalg::max_abs_diff(x, stationary.concentrations), 1e-6);
}

TEST(TimeVarying, RejectsBadRates) {
  const auto landscape = core::Landscape::flat(4, 1.0);
  EXPECT_THROW(TimeVaryingReplicatorODE(landscape, nullptr), precondition_error);
  const TimeVaryingReplicatorODE bad(landscape, [](double) { return 0.7; });
  std::vector<double> x(16, 1.0 / 16.0), dx(16);
  EXPECT_THROW(bad.derivative(0.0, x, dx), precondition_error);
}

}  // namespace
}  // namespace qs::ode
