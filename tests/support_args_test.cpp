// Unit tests for the command-line argument parser.
#include "support/args.hpp"

#include <gtest/gtest.h>

#include "support/contracts.hpp"

namespace qs {
namespace {

ArgParser parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return ArgParser(static_cast<int>(v.size()), v.data());
}

TEST(ArgParser, KeyValuePairs) {
  const auto args = parse({"prog", "--nu", "16", "--p", "0.01"});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_TRUE(args.has("nu"));
  EXPECT_EQ(args.get("nu", ""), "16");
  EXPECT_EQ(args.get_long("nu", 0, 1, 100), 16);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.0, 0.0, 0.5), 0.01);
}

TEST(ArgParser, EqualsSyntax) {
  const auto args = parse({"prog", "--landscape=random", "--seed=42"});
  EXPECT_EQ(args.get("landscape", ""), "random");
  EXPECT_EQ(args.get_long("seed", 0, 0, 1000), 42);
}

TEST(ArgParser, BareFlags) {
  const auto args = parse({"prog", "--reduced", "--parallel", "--nu", "8"});
  EXPECT_TRUE(args.has("reduced"));
  EXPECT_TRUE(args.has("parallel"));
  EXPECT_FALSE(args.has("serial"));
  EXPECT_EQ(args.get_long("nu", 0, 1, 100), 8);
}

TEST(ArgParser, FlagFollowedByOptionIsNotConsumed) {
  // "--reduced --nu 8": --reduced must not swallow "--nu".
  const auto args = parse({"prog", "--reduced", "--nu", "8"});
  EXPECT_EQ(args.get("reduced", "missing"), "");
  EXPECT_EQ(args.get_long("nu", 0, 1, 100), 8);
}

TEST(ArgParser, PositionalArguments) {
  const auto args = parse({"prog", "input.qs", "--nu", "4", "output.qs"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.qs");
  EXPECT_EQ(args.positional()[1], "output.qs");
}

TEST(ArgParser, DefaultsWhenAbsent) {
  const auto args = parse({"prog"});
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5, 0.0, 10.0), 2.5);
  EXPECT_EQ(args.get_long("missing", 7, 0, 10), 7);
}

TEST(ArgParser, NumericValidation) {
  const auto args = parse({"prog", "--p", "abc", "--nu", "200"});
  EXPECT_THROW(args.get_double("p", 0.0, 0.0, 1.0), precondition_error);
  EXPECT_THROW(args.get_long("nu", 0, 1, 100), precondition_error);  // range
}

TEST(ArgParser, OnlyKnownNamesTheFirstUnknownOptionInCommandLineOrder) {
  const auto args = parse({"prog", "--zeta", "1", "--b=2", "--alpha", "--c"});
  EXPECT_TRUE(args.only_known({"alpha", "b", "c", "zeta"}));
  testing::internal::CaptureStderr();
  EXPECT_FALSE(args.only_known({"b", "c"}));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "prog: unknown option --zeta\n");
}

}  // namespace
}  // namespace qs
