#include "reference/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/vector_ops.hpp"
#include "support/contracts.hpp"

namespace qs::linalg {

KrylovResult conjugate_gradient(const ApplyFn& apply, std::span<const double> b,
                                std::span<double> x, const KrylovOptions& options,
                                const ApplyFn& preconditioner) {
  const std::size_t n = b.size();
  require(x.size() == n, "conjugate_gradient: dimension mismatch");
  require(static_cast<bool>(apply), "conjugate_gradient: apply callback required");

  KrylovResult out;
  const double b_norm = norm2(b);
  if (b_norm == 0.0) {
    for (double& v : x) v = 0.0;
    out.converged = true;
    return out;
  }

  std::vector<double> local;
  std::vector<double>& work = options.work != nullptr ? *options.work : local;
  work.resize(4 * n);
  auto slice = [&work, n](std::size_t k) {
    return std::span<double>(work.data() + k * n, n);
  };
  std::span<double> r = slice(0);
  std::span<double> z = slice(1);
  std::span<double> p = slice(2);
  std::span<double> ap = slice(3);
  apply(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];

  auto precondition = [&](std::span<const double> in, std::span<double> out_span) {
    if (preconditioner) {
      preconditioner(in, out_span);
    } else {
      copy(in, out_span);
    }
  };

  precondition(r, z);
  copy(z, p);
  double rz = dot(r, z);

  for (unsigned it = 1; it <= options.max_iterations; ++it) {
    apply(p, ap);
    const double pap = dot(p, ap);
    require(pap != 0.0, "conjugate_gradient: breakdown (operator not SPD?)");
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    out.iterations = it;
    out.relative_residual = norm2(r) / b_norm;
    if (out.relative_residual <= options.tolerance) {
      out.converged = true;
      break;
    }
    precondition(r, z);
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return out;
}

KrylovResult minres(const ApplyFn& apply, std::span<const double> b,
                    std::span<double> x, const KrylovOptions& options) {
  const std::size_t n = b.size();
  require(x.size() == n, "minres: dimension mismatch");
  require(static_cast<bool>(apply), "minres: apply callback required");

  KrylovResult out;
  const double b_norm = norm2(b);
  if (b_norm == 0.0) {
    for (double& v : x) v = 0.0;
    out.converged = true;
    return out;
  }

  // Paige-Saunders MINRES with the compact Givens recurrence; |eta| tracks
  // the exact residual norm in exact arithmetic.
  // Seven work vectors; v_prev, w_old and w start at 0.
  std::vector<double> local;
  std::vector<double>& work = options.work != nullptr ? *options.work : local;
  work.resize(7 * n);
  auto slice = [&work, n](std::size_t k) {
    return std::span<double>(work.data() + k * n, n);
  };
  std::span<double> v_prev = slice(0);
  std::span<double> v = slice(1);
  std::span<double> v_next = slice(2);
  std::span<double> w_old = slice(3);
  std::span<double> w = slice(4);
  std::span<double> w_new = slice(5);
  std::span<double> scratch = slice(6);
  for (std::span<double> zero : {v_prev, w_old, w}) {
    std::fill(zero.begin(), zero.end(), 0.0);
  }

  apply(x, scratch);
  for (std::size_t i = 0; i < n; ++i) v[i] = b[i] - scratch[i];
  double beta = norm2(v);
  if (beta == 0.0) {
    out.converged = true;
    return out;
  }
  scale(v, 1.0 / beta);

  double eta = beta;
  double gamma_old = 1.0, gamma = 1.0;
  double sigma_old = 0.0, sigma = 0.0;

  for (unsigned it = 1; it <= options.max_iterations; ++it) {
    // Lanczos step.
    apply(v, scratch);
    const double alpha = dot(v, scratch);
    for (std::size_t i = 0; i < n; ++i) {
      v_next[i] = scratch[i] - alpha * v[i] - beta * v_prev[i];
    }
    const double beta_next = norm2(v_next);
    if (beta_next > 0.0) scale(v_next, 1.0 / beta_next);

    // Givens QR update of the tridiagonal factorisation.
    const double delta = gamma * alpha - gamma_old * sigma * beta;
    const double rho1 = std::sqrt(delta * delta + beta_next * beta_next);
    const double rho2 = sigma * alpha + gamma_old * gamma * beta;
    const double rho3 = sigma_old * beta;
    require(rho1 > 0.0, "minres: breakdown");
    const double gamma_next = delta / rho1;
    const double sigma_next = beta_next / rho1;

    for (std::size_t i = 0; i < n; ++i) {
      w_new[i] = (v[i] - rho3 * w_old[i] - rho2 * w[i]) / rho1;
      x[i] += gamma_next * eta * w_new[i];
    }
    eta = -sigma_next * eta;

    out.iterations = it;
    out.relative_residual = std::abs(eta) / b_norm;
    if (out.relative_residual <= options.tolerance) {
      out.converged = true;
      break;
    }

    // Shift the recurrences (span swaps rotate the backing buffers).
    std::swap(w_old, w);
    std::swap(w, w_new);
    std::swap(v_prev, v);
    std::swap(v, v_next);
    beta = beta_next;
    gamma_old = gamma;
    gamma = gamma_next;
    sigma_old = sigma;
    sigma = sigma_next;
    if (beta == 0.0) {  // invariant subspace found; residual is final
      out.converged = out.relative_residual <= options.tolerance;
      break;
    }
  }
  return out;
}

}  // namespace qs::linalg
