#include "ode/time_varying.hpp"

#include <array>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "support/bits.hpp"
#include "support/contracts.hpp"
#include "transforms/blocked_butterfly.hpp"

namespace qs::ode {

TimeVaryingReplicatorODE::TimeVaryingReplicatorODE(
    const core::Landscape& landscape, std::function<double(double)> rate)
    : landscape_(&landscape), rate_(std::move(rate)) {
  require(static_cast<bool>(rate_), "TimeVaryingReplicatorODE: rate callback required");
}

double TimeVaryingReplicatorODE::rate_at(double t) const {
  const double p = rate_(t);
  require(p > 0.0 && p <= 0.5,
          "TimeVaryingReplicatorODE: rate(t) must be in (0, 1/2]");
  return p;
}

double TimeVaryingReplicatorODE::derivative(double t, std::span<const double> x,
                                            std::span<double> dx) const {
  const std::size_t n = static_cast<std::size_t>(dimension());
  require(x.size() == n && dx.size() == n,
          "TimeVaryingReplicatorODE::derivative: size mismatch");
  require(x.data() != dx.data(),
          "TimeVaryingReplicatorODE::derivative: x and dx must not alias");

  // Q(p(t)) is the uniform butterfly of the current rate: nu copies of one
  // factor, staged on the stack so a derivative allocates nothing.
  const unsigned nu = log2_exact(n);
  std::array<transforms::Factor2, kMaxChainLength> factors;
  factors.fill(transforms::Factor2::uniform(rate_at(t)));

  const auto f = landscape_->values();
  double phi = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    dx[i] = f[i] * x[i];
    phi += dx[i];
  }
  // dx = Q(p(t)) (f .* x)
  transforms::apply_blocked_butterfly(dx, std::span(factors.data(), nu),
                                      parallel::serial_engine());
  for (std::size_t i = 0; i < n; ++i) dx[i] -= phi * x[i];
  return phi;
}

void rk4_step(const TimeVaryingReplicatorODE& ode, double& t, std::span<double> x,
              double dt) {
  require(dt > 0.0, "rk4_step: step size must be positive");
  const std::size_t n = x.size();
  std::vector<double> k1(n), k2(n), k3(n), k4(n), tmp(n);

  ode.derivative(t, x, k1);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + 0.5 * dt * k1[i];
  ode.derivative(t + 0.5 * dt, tmp, k2);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + 0.5 * dt * k2[i];
  ode.derivative(t + 0.5 * dt, tmp, k3);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + dt * k3[i];
  ode.derivative(t + dt, tmp, k4);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    if (x[i] < 0.0) x[i] = 0.0;
  }
  linalg::normalize1(x);
  t += dt;
}

void integrate(const TimeVaryingReplicatorODE& ode, double& t, std::span<double> x,
               double dt, std::size_t steps) {
  for (std::size_t s = 0; s < steps; ++s) rk4_step(ode, t, x, dt);
}

}  // namespace qs::ode
