// Cross-validation of the three mat-vec operators (Fmmp, Xmvp, Smvp) and
// the problem formulations.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/fmmp.hpp"
#include "core/site_process.hpp"
#include "linalg/vector_ops.hpp"
#include "reference/fmmp.hpp"
#include "reference/smvp.hpp"
#include "reference/xmvp.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace qs::core {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Xoshiro256 rng(seed);
  for (double& x : v) x = rng.uniform(0.0, 1.0);
  return v;
}

struct FormulationCase {
  Formulation formulation;
  const char* name;
};

class OperatorAgreement : public ::testing::TestWithParam<FormulationCase> {};

TEST_P(OperatorAgreement, FmmpEqualsSmvpEqualsFullXmvp) {
  const unsigned nu = 9;
  const std::size_t n = 512;
  const auto model = MutationModel::uniform(nu, 0.03);
  const auto landscape = Landscape::random(nu, 5.0, 1.0, 99);
  const Formulation f = GetParam().formulation;

  const FmmpOperator fmmp(model, landscape, f);
  const XmvpOperator xmvp(model, landscape, nu, f);
  const SmvpOperator smvp(model, landscape, f);

  const auto x = random_vector(n, 5);
  std::vector<double> y_fmmp(n), y_xmvp(n), y_smvp(n);
  fmmp.apply(x, y_fmmp);
  xmvp.apply(x, y_xmvp);
  smvp.apply(x, y_smvp);

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y_fmmp[i], y_smvp[i], 1e-12) << GetParam().name;
    EXPECT_NEAR(y_xmvp[i], y_smvp[i], 1e-12) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormulations, OperatorAgreement,
    ::testing::Values(FormulationCase{Formulation::right, "right"},
                      FormulationCase{Formulation::symmetric, "symmetric"},
                      FormulationCase{Formulation::left, "left"}),
    [](const auto& info) { return info.param.name; });

TEST(XmvpOperator, TruncationErrorDecreasesWithRadius) {
  const unsigned nu = 10;
  const std::size_t n = 1024;
  const auto model = MutationModel::uniform(nu, 0.01);
  const auto landscape = Landscape::random(nu, 5.0, 1.0, 7);
  const auto x = random_vector(n, 8);

  std::vector<double> exact(n);
  FmmpOperator(model, landscape).apply(x, exact);

  double prev_err = 1e300;
  for (unsigned d : {1u, 3u, 5u, 8u, nu}) {
    const XmvpOperator xmvp(model, landscape, d);
    std::vector<double> y(n);
    xmvp.apply(x, y);
    const double err = linalg::max_abs_diff(y, exact);
    EXPECT_LE(err, prev_err * (1.0 + 1e-12)) << "d=" << d;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-12);  // d = nu is exact
}

TEST(XmvpOperator, DmaxFiveIsAccurateAtSmallP) {
  // The paper reports ~1e-10 approximation error for d_max = 5 at p = 0.01.
  const unsigned nu = 12;
  const auto model = MutationModel::uniform(nu, 0.01);
  const auto landscape = Landscape::random(nu, 5.0, 1.0, 21);
  const auto x = random_vector(std::size_t{1} << nu, 3);

  std::vector<double> exact(x.size()), approx(x.size());
  FmmpOperator(model, landscape).apply(x, exact);
  XmvpOperator(model, landscape, 5).apply(x, approx);
  EXPECT_LT(linalg::max_abs_diff(exact, approx), 1e-8);
  EXPECT_GT(linalg::max_abs_diff(exact, approx), 0.0);  // genuinely truncated
}

TEST(XmvpOperator, PatternCountIsBinomialPrefixSum) {
  const unsigned nu = 10;
  const auto model = MutationModel::uniform(nu, 0.05);
  const auto landscape = Landscape::flat(nu, 1.0);
  // sum_{k<=2} C(10,k) = 1 + 10 + 45.
  EXPECT_EQ(XmvpOperator(model, landscape, 2).pattern_count(), 56u);
  EXPECT_EQ(XmvpOperator(model, landscape, 0).pattern_count(), 1u);
  EXPECT_EQ(XmvpOperator(model, landscape, nu).pattern_count(), 1024u);
}

TEST(XmvpOperator, EngineApplyMatchesSerial) {
  const unsigned nu = 8;
  const auto model = MutationModel::uniform(nu, 0.02);
  const auto landscape = Landscape::random(nu, 5.0, 1.0, 31);
  const auto x = random_vector(256, 4);
  std::vector<double> serial(256), parallel_out(256);
  XmvpOperator(model, landscape, 3).apply(x, serial);
  XmvpOperator xp(model, landscape, 3, Formulation::right,
                  &parallel::parallel_engine());
  xp.apply(x, parallel_out);
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_NEAR(serial[i], parallel_out[i], 1e-13);
  }
}

TEST(FmmpOperator, EngineApplyMatchesSerial) {
  const unsigned nu = 11;
  const auto model = MutationModel::uniform(nu, 0.04);
  const auto landscape = Landscape::random(nu, 5.0, 1.0, 41);
  const auto x = random_vector(std::size_t{1} << nu, 6);
  std::vector<double> serial(x.size()), engine_out(x.size());
  reference::ReferenceFmmp(model, landscape).apply(x, serial);
  FmmpOperator with_engine(model, landscape, Formulation::right,
                           &parallel::parallel_engine());
  with_engine.apply(x, engine_out);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(serial[i], engine_out[i]);
  }
}

TEST(ReferenceFmmp, MatchesDenseAssembly) {
  // The oracle the Fmmp tests pin the banded kernel against is itself
  // checked here against the materialised W, for every kind and admissible
  // formulation, with Algorithm 1 in both level orders and Algorithm 2 on
  // an engine.
  Xoshiro256 rng(71);
  std::vector<transforms::Factor2> sites;
  for (unsigned k = 0; k < 5; ++k) {
    sites.push_back(
        transforms::Factor2::asymmetric(rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)));
  }
  const std::vector<MutationModel> models{
      MutationModel::uniform(5, 0.04), MutationModel::per_site(sites),
      MutationModel::grouped(
          {coupled_single_flip_group(2, 0.25), coupled_single_flip_group(3, 0.1)})};
  const auto landscape = Landscape::random(5, 5.0, 1.0, 72);
  const auto x = random_vector(32, 73);
  for (const auto& model : models) {
    for (const Formulation f :
         {Formulation::right, Formulation::symmetric, Formulation::left}) {
      if (f == Formulation::symmetric && !model.symmetric()) continue;
      std::vector<double> expected(32);
      SmvpOperator(model, landscape, f).apply(x, expected);
      const reference::ReferenceFmmp variants[] = {
          reference::ReferenceFmmp(model, landscape, f),
          reference::ReferenceFmmp(model, landscape, f, nullptr,
                                   transforms::LevelOrder::descending),
          reference::ReferenceFmmp(model, landscape, f, &parallel::parallel_engine())};
      for (const auto& op : variants) {
        std::vector<double> y(32);
        op.apply(x, y);
        for (std::size_t i = 0; i < 32; ++i) {
          EXPECT_NEAR(y[i], expected[i], 1e-13)
              << "kind " << static_cast<int>(model.kind()) << " formulation "
              << static_cast<int>(f);
        }
      }
    }
  }
}

TEST(FmmpOperator, WorksForPerSiteAndGroupedModels) {
  // Section 2.2: generalized mutation at the same cost. Validate against
  // the dense assembly.
  Xoshiro256 rng(61);
  std::vector<transforms::Factor2> sites;
  for (unsigned k = 0; k < 6; ++k) {
    sites.push_back(
        transforms::Factor2::asymmetric(rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)));
  }
  const auto model = MutationModel::per_site(sites);
  const auto landscape = Landscape::random(6, 5.0, 1.0, 62);
  const FmmpOperator fmmp(model, landscape);
  const SmvpOperator smvp(model, landscape);
  const auto x = random_vector(64, 10);
  std::vector<double> y1(64), y2(64);
  fmmp.apply(x, y1);
  smvp.apply(x, y2);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

TEST(FmmpOperator, SymmetricFormulationRejectsAsymmetricModel) {
  const auto model = MutationModel::per_site(
      {transforms::Factor2::asymmetric(0.3, 0.1),
       transforms::Factor2::asymmetric(0.2, 0.2)});
  const auto landscape = Landscape::flat(2, 1.0);
  EXPECT_THROW(FmmpOperator(model, landscape, Formulation::symmetric),
               precondition_error);
}

TEST(XmvpOperator, RejectsNonUniformModelAndBadRadius) {
  const auto per_site = MutationModel::per_site(
      {transforms::Factor2::uniform(0.1), transforms::Factor2::uniform(0.2)});
  const auto landscape = Landscape::flat(2, 1.0);
  EXPECT_THROW(XmvpOperator(per_site, landscape, 1), precondition_error);
  const auto uniform = MutationModel::uniform(2, 0.1);
  EXPECT_THROW(XmvpOperator(uniform, landscape, 3), precondition_error);
}

TEST(Operators, ApplyRejectsAliasingAndWrongSize) {
  const auto model = MutationModel::uniform(4, 0.1);
  const auto landscape = Landscape::flat(4, 1.0);
  const FmmpOperator op(model, landscape);
  std::vector<double> x(16, 1.0);
  EXPECT_THROW(op.apply(x, x), precondition_error);
  std::vector<double> y(8);
  EXPECT_THROW(op.apply(x, y), precondition_error);
}

TEST(ConvertEigenvector, RoundTripsBetweenFormulations) {
  const auto landscape = Landscape::random(6, 5.0, 1.0, 77);
  auto x = random_vector(64, 11);
  linalg::normalize1(x);
  const auto original = x;
  convert_eigenvector(Formulation::right, Formulation::symmetric, landscape, x);
  convert_eigenvector(Formulation::symmetric, Formulation::left, landscape, x);
  convert_eigenvector(Formulation::left, Formulation::right, landscape, x);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(x[i], original[i], 1e-13);
}

TEST(ConvertEigenvector, MatchesPaperRelations) {
  // x_R = F^{-1} x_L componentwise (then both normalised).
  const auto landscape = Landscape::random(5, 5.0, 1.0, 78);
  auto x_left = random_vector(32, 12);
  linalg::normalize1(x_left);
  auto x_right = x_left;
  convert_eigenvector(Formulation::left, Formulation::right, landscape, x_right);
  std::vector<double> manual(32);
  for (std::size_t i = 0; i < 32; ++i) manual[i] = x_left[i] / landscape.value(i);
  linalg::normalize1(manual);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_NEAR(x_right[i], manual[i], 1e-14);
}

TEST(Operators, NamesAreInformative) {
  const auto model = MutationModel::uniform(4, 0.1);
  const auto landscape = Landscape::flat(4, 1.0);
  EXPECT_EQ(FmmpOperator(model, landscape).name(), "Fmmp");
  EXPECT_EQ(XmvpOperator(model, landscape, 2).name(), "Xmvp(2)");
  EXPECT_EQ(SmvpOperator(model, landscape).name(), "Smvp");
}

}  // namespace
}  // namespace qs::core
