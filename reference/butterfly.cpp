#include "reference/butterfly.hpp"

#include "support/bits.hpp"
#include "support/contracts.hpp"

namespace qs::transforms {

void apply_butterfly_level(std::span<double> v, const Factor2& f, unsigned k) {
  const std::size_t n = v.size();
  require(is_power_of_two(n), "apply_butterfly_level: length must be a power of two");
  const std::size_t stride = std::size_t{1} << k;
  require(stride < n, "apply_butterfly_level: level k out of range");
  for (std::size_t j = 0; j < n; j += stride << 1) {
    for (std::size_t idx = j; idx < j + stride; ++idx) {
      const double t1 = v[idx];
      const double t2 = v[idx + stride];
      v[idx] = f.m00 * t1 + f.m01 * t2;
      v[idx + stride] = f.m10 * t1 + f.m11 * t2;
    }
  }
}

void apply_butterfly(std::span<double> v, std::span<const Factor2> factors,
                     LevelOrder order) {
  const std::size_t n = v.size();
  require(is_power_of_two(n), "apply_butterfly: length must be a power of two");
  const unsigned nu = log2_exact(n);
  require(factors.size() == nu, "apply_butterfly: need exactly log2(N) factors");
  if (order == LevelOrder::ascending) {
    for (unsigned k = 0; k < nu; ++k) apply_butterfly_level(v, factors[k], k);
  } else {
    for (unsigned k = nu; k-- > 0;) apply_butterfly_level(v, factors[k], k);
  }
}

void apply_uniform_butterfly(std::span<double> v, double p, LevelOrder order) {
  const std::size_t n = v.size();
  require(is_power_of_two(n), "apply_uniform_butterfly: length must be a power of two");
  const unsigned nu = log2_exact(n);
  const Factor2 f = Factor2::uniform(p);
  if (order == LevelOrder::ascending) {
    for (unsigned k = 0; k < nu; ++k) apply_butterfly_level(v, f, k);
  } else {
    for (unsigned k = nu; k-- > 0;) apply_butterfly_level(v, f, k);
  }
}

void apply_butterfly_per_level(std::span<double> v, std::span<const Factor2> factors,
                               const parallel::Engine& engine) {
  const std::size_t n = v.size();
  require(is_power_of_two(n), "apply_butterfly_per_level: length must be a power of two");
  const unsigned nu = log2_exact(n);
  require(factors.size() == nu, "apply_butterfly_per_level: need exactly log2(N) factors");
  double* data = v.data();
  const std::size_t half = n / 2;
  for (unsigned k = 0; k < nu; ++k) {
    const std::size_t stride = std::size_t{1} << k;
    const Factor2 f = factors[k];
    engine.dispatch(half, [data, stride, f](std::size_t begin, std::size_t end) {
      for (std::size_t id = begin; id < end; ++id) {
        const std::size_t j = 2 * id - (id & (stride - 1));
        const double t1 = data[j];
        const double t2 = data[j + stride];
        data[j] = f.m00 * t1 + f.m01 * t2;
        data[j + stride] = f.m10 * t1 + f.m11 * t2;
      }
    });
  }
}

}  // namespace qs::transforms
