// Error classes Gamma_k and population statistics on concentration vectors.
//
// The error class Gamma_{k,i} collects all sequences at Hamming distance k
// from sequence i (Eq. (6) of the paper); the classes relative to the
// master sequence (i = 0) carry the cumulative concentrations [Gamma_k]
// plotted in Figure 1 and used by the error-threshold analysis.
#pragma once

#include <span>
#include <vector>

#include "support/bits.hpp"

namespace qs::analysis {

/// Cumulative error-class concentrations relative to `reference`:
/// out[k] = sum of x_j over all j with d_H(j, reference) = k.
/// Requires x.size() == 2^nu.
std::vector<double> class_concentrations(unsigned nu, std::span<const double> x,
                                         seq_t reference = 0);

/// The class concentrations of every column of an interleaved panel
/// (panel[i*m + j] = element i of column j) in one pass over it: out[j] is
/// class_concentrations of column j, bit for bit — each column's elements
/// enter each bin in ascending index order.  Requires m >= 1 and
/// panel.size() == 2^nu * m.
std::vector<std::vector<double>> panel_class_concentrations(
    unsigned nu, std::span<const double> panel, std::size_t m, seq_t reference = 0);

/// Error-class cardinalities |Gamma_k| = C(nu, k) as doubles.
std::vector<double> class_cardinalities(unsigned nu);

/// The class concentrations of the exactly uniform population
/// x_i = 1/2^nu: out[k] = C(nu, k) / 2^nu. This is the p > p_max limit of
/// the error-threshold phenomenon.
std::vector<double> uniform_class_concentrations(unsigned nu);

/// Members of Gamma_{k, reference} in increasing index order (test /
/// example utility; requires small nu).
std::vector<seq_t> class_members(unsigned nu, unsigned k, seq_t reference = 0);

/// Shannon entropy (nats) of a concentration vector; log(N) for the uniform
/// population, 0 for a homogeneous one.  A scalar order parameter for the
/// transition of Figure 1.
double population_entropy(std::span<const double> x);

}  // namespace qs::analysis
