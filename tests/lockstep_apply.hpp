// Test harness: the distributed rank product run on in-process lockstep
// ranks, gathered back into one vector.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "distributed/block_layout.hpp"
#include "distributed/distributed_solver.hpp"
#include "distributed/exchange.hpp"

namespace qs::distributed {

/// W x on `ranks` LockstepGroup ranks: every rank applies
/// distributed_apply_w to its block of x.
struct LockstepProduct {
  std::vector<double> y;              ///< The gathered product.
  std::vector<TrafficStats> traffic;  ///< Each rank's own transport counters.
};

inline LockstepProduct lockstep_apply_w(const core::MutationModel& model,
                                        const core::Landscape& landscape,
                                        unsigned ranks, std::span<const double> x,
                                        const transforms::BlockedPlan& plan = {}) {
  const BlockLayout layout(model.nu(), ranks);
  LockstepProduct out{std::vector<double>(x.size()), std::vector<TrafficStats>(ranks)};
  LockstepGroup group(ranks);
  group.run([&](Exchange& exchange) {
    const unsigned rank = exchange.rank();
    const std::size_t block = layout.block_size();
    const std::size_t begin = layout.block_begin(rank);
    std::vector<double> y(block), recv(block);
    distributed_apply_w(exchange, layout, model.site_factors(),
                        landscape.values().subspan(begin, block), plan,
                        x.subspan(begin, block), y, recv);
    // Each rank writes only its own block and its own counters.
    std::copy(y.begin(), y.end(), out.y.begin() + static_cast<std::ptrdiff_t>(begin));
    out.traffic[rank] = exchange.stats();
  });
  return out;
}

}  // namespace qs::distributed
