// Unit tests for the four-letter RNA alphabet extension.
#include <gtest/gtest.h>

#include <cmath>

#include "core/fmmp.hpp"
#include "linalg/vector_ops.hpp"
#include "reference/explicit_q.hpp"
#include "reference/smvp.hpp"
#include "rna/alphabet.hpp"
#include "rna/rna_model.hpp"
#include "solvers/power_iteration.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "support/contracts.hpp"

namespace qs::rna {
namespace {

TEST(Alphabet, CharRoundTrip) {
  for (char c : {'A', 'C', 'G', 'U'}) {
    EXPECT_EQ(to_char(from_char(c)), c);
  }
  EXPECT_EQ(from_char('a'), Nucleotide::A);
  EXPECT_EQ(from_char('T'), Nucleotide::U);  // DNA input tolerated
  EXPECT_THROW(from_char('X'), precondition_error);
}

TEST(Alphabet, EncodeDecodeRoundTrip) {
  for (const char* s : {"A", "ACGU", "GGGGGGGG", "AUCGAUCGAUCG"}) {
    EXPECT_EQ(decode(encode(s), static_cast<unsigned>(std::string(s).size())), s);
  }
  EXPECT_EQ(encode("A"), 0u);          // master sequence is all-A
  EXPECT_EQ(encode("C"), 1u);
  EXPECT_EQ(encode("G"), 2u);
  EXPECT_EQ(encode("U"), 3u);
  EXPECT_EQ(encode("AC"), 4u);         // base 1 in bits 2..3
  EXPECT_THROW(encode(""), precondition_error);
}

TEST(Alphabet, BaseAtAndDistance) {
  const seq_t s = encode("AGCU");
  EXPECT_EQ(base_at(s, 0), Nucleotide::A);
  EXPECT_EQ(base_at(s, 1), Nucleotide::G);
  EXPECT_EQ(base_at(s, 2), Nucleotide::C);
  EXPECT_EQ(base_at(s, 3), Nucleotide::U);

  EXPECT_EQ(base_hamming_distance(encode("ACGU"), encode("ACGU"), 4), 0u);
  EXPECT_EQ(base_hamming_distance(encode("ACGU"), encode("UCGA"), 4), 2u);
  EXPECT_EQ(base_hamming_distance(encode("AAAA"), encode("CGUC"), 4), 4u);
  // Base distance != bit distance: A (00) -> U (11) is one base change but
  // two bit flips.
  EXPECT_EQ(base_hamming_distance(encode("A"), encode("U"), 1), 1u);
  EXPECT_EQ(hamming_distance(encode("A"), encode("U")), 2u);
}

TEST(Substitution, JukesCantorProperties) {
  const auto jc = jukes_cantor(0.03);
  EXPECT_LT(jc.max_column_sum_deviation(), 1e-15);
  EXPECT_TRUE(jc.is_symmetric(0.0));
  EXPECT_DOUBLE_EQ(jc(0, 0), 0.97);
  EXPECT_DOUBLE_EQ(jc(1, 0), 0.01);
  EXPECT_THROW(jukes_cantor(0.8), precondition_error);
  EXPECT_THROW(jukes_cantor(0.0), precondition_error);
}

TEST(Substitution, KimuraProperties) {
  const double alpha = 0.02, beta = 0.005;
  const auto k2p = kimura(alpha, beta);
  EXPECT_LT(k2p.max_column_sum_deviation(), 1e-15);
  EXPECT_TRUE(k2p.is_symmetric(0.0));
  // Transitions: A<->G and C<->U.
  const auto a = static_cast<std::size_t>(Nucleotide::A);
  const auto c = static_cast<std::size_t>(Nucleotide::C);
  const auto g = static_cast<std::size_t>(Nucleotide::G);
  const auto u = static_cast<std::size_t>(Nucleotide::U);
  EXPECT_DOUBLE_EQ(k2p(g, a), alpha);
  EXPECT_DOUBLE_EQ(k2p(u, c), alpha);
  EXPECT_DOUBLE_EQ(k2p(c, a), beta);
  EXPECT_DOUBLE_EQ(k2p(u, a), beta);
  EXPECT_THROW(kimura(0.6, 0.3), precondition_error);
}

TEST(RnaModel, KimuraWithEqualRatesIsJukesCantor) {
  const auto jc = jukes_cantor(0.03);
  const auto k2p = kimura(0.01, 0.01);
  EXPECT_LT(jc.max_abs_distance(k2p), 1e-15);
}

TEST(RnaModel, UniformModelEntriesFactorOverBases) {
  const unsigned bases = 3;
  const auto model = uniform_rna_model(bases, jukes_cantor(0.06));
  EXPECT_EQ(model.nu(), 6u);
  // Probability of any specific single-base change = mu/3 * (1-mu)^2.
  const double mu = 0.06;
  const seq_t from = encode("AAA");
  const seq_t to = encode("GAA");
  EXPECT_NEAR(model.entry(to, from), (mu / 3.0) * (1 - mu) * (1 - mu), 1e-15);
  // Two changes.
  EXPECT_NEAR(model.entry(encode("GCA"), from),
              (mu / 3.0) * (mu / 3.0) * (1 - mu), 1e-15);
}

TEST(RnaModel, QuasispeciesOnSinglePeakMatchesDenseReference) {
  const unsigned bases = 3;  // 64 species
  const auto model = uniform_rna_model(bases, kimura(0.02, 0.008));
  const auto landscape = rna_single_peak("ACG", 2.0, 1.0);

  const auto fast = solvers::solve(model, landscape);
  ASSERT_TRUE(fast.converged);

  // The facade's iteration on Smvp: a grouped model runs unshifted.
  const core::SmvpOperator smvp(model, landscape);
  const auto dense = solvers::power_iteration(smvp, solvers::landscape_start(landscape));
  ASSERT_TRUE(dense.converged);

  EXPECT_NEAR(fast.eigenvalue, dense.eigenvalue, 1e-10);
  EXPECT_LT(linalg::max_abs_diff(fast.concentrations, dense.eigenvector), 1e-10);
  // The master RNA sequence dominates.
  const seq_t master = encode("ACG");
  for (seq_t s = 0; s < 64; ++s) {
    if (s != master) EXPECT_GT(fast.concentrations[master], fast.concentrations[s]);
  }
}

TEST(RnaModel, BaseClassConcentrationsPartitionUnity) {
  const unsigned bases = 4;
  const auto model = uniform_rna_model(bases, jukes_cantor(0.05));
  const auto landscape = rna_single_peak("AUGC", 3.0, 1.0);
  const auto result = solvers::solve(model, landscape);
  ASSERT_TRUE(result.converged);

  const auto classes =
      base_class_concentrations(bases, result.concentrations, encode("AUGC"));
  ASSERT_EQ(classes.size(), 5u);
  double total = 0.0;
  for (double c : classes) {
    EXPECT_GE(c, 0.0);
    total += c;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Monotone decay of per-class totals away from the master at small mu.
  EXPECT_GT(classes[0], classes[2]);
}

TEST(RnaModel, ErrorThresholdExistsForRnaSinglePeak) {
  // Sweep the Jukes-Cantor rate: ordered at small mu, uniform at large mu.
  const unsigned bases = 4;
  const auto landscape = rna_single_peak("AAAA", 5.0, 1.0);
  const seq_t master = 0;

  const auto low = solvers::solve(uniform_rna_model(bases, jukes_cantor(0.01)),
                                  landscape);
  ASSERT_TRUE(low.converged);
  EXPECT_GT(low.concentrations[master], 0.3);

  const auto high = solvers::solve(uniform_rna_model(bases, jukes_cantor(0.7)),
                                   landscape);
  ASSERT_TRUE(high.converged);
  // Near mu = 3/4 every sequence approaches 1/256.
  EXPECT_LT(high.concentrations[master], 3.0 / 256.0);
}

TEST(RnaModel, PerBaseHotspotShiftsMassOffTheHotspot) {
  const unsigned bases = 3;
  std::vector<linalg::DenseMatrix> subs(bases, jukes_cantor(0.01));
  subs[1] = jukes_cantor(0.3);  // mutational hotspot at base 1
  const auto model = per_base_rna_model(subs);
  const auto landscape = rna_single_peak("AAA", 2.0, 1.0);
  const auto result = solvers::solve(model, landscape);
  ASSERT_TRUE(result.converged);

  // Mutants at the hotspot base must carry more mass than mutants at the
  // quiet bases.
  const double hot = result.concentrations[encode("ACA")];
  const double quiet = result.concentrations[encode("CAA")];
  EXPECT_GT(hot, 3.0 * quiet);
}

TEST(RnaModel, RejectsBadInput) {
  EXPECT_THROW(uniform_rna_model(0, jukes_cantor(0.1)), precondition_error);
  EXPECT_THROW(uniform_rna_model(3, linalg::DenseMatrix(3, 3)), precondition_error);
  EXPECT_THROW(rna_single_peak("ACGT...bad!", 2.0, 1.0), precondition_error);
  EXPECT_THROW(rna_base_class_landscape("ACG", {1.0, 1.0}), precondition_error);
}

}  // namespace
}  // namespace qs::rna
