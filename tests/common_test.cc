// Tests for the common utilities: deterministic RNG, assertions, and the
// strict input reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/parse.h"
#include "common/rng.h"

namespace wadc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowIsInRange) {
  Rng rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-3.5, 8.25);
    EXPECT_GE(x, -3.5);
    EXPECT_LT(x, 8.25);
  }
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(19);
  const int n = 20000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(42.0);
  EXPECT_NEAR(sum / n, 42.0, 1.5);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(29);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.sample_without_replacement(20, 8);
    EXPECT_EQ(sample.size(), 8u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (const auto v : sample) EXPECT_LT(v, 20u);
  }
}

TEST(Rng, SampleWithoutReplacementFullSetIsPermutation) {
  Rng rng(37);
  auto sample = rng.sample_without_replacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, ForkedStreamsAreIndependentAndStable) {
  Rng base(41);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  Rng f1_again = Rng(41).fork(1);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
  // fork(label) is a pure function of (seed, label).
  Rng f1_b = Rng(41).fork(1);
  EXPECT_EQ(f1_again.next_u64(), f1_b.next_u64());
}

TEST(Rng, ForkDiffersFromParentStream) {
  Rng parent(43);
  Rng child = parent.fork(0);
  Rng parent_fresh(43);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.next_u64() == parent_fresh.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Assert, PassingAssertIsSilent) {
  WADC_ASSERT(1 + 1 == 2, "arithmetic broke");
  SUCCEED();
}

TEST(AssertDeath, FailingAssertAbortsWithMessage) {
  EXPECT_DEATH(WADC_ASSERT(false, "value was ", 42),
               "wadc assertion failed.*value was 42");
}

TEST(AssertDeath, FatalAborts) {
  EXPECT_DEATH(WADC_FATAL("unreachable state ", 7), "unreachable state 7");
}

TEST(ParseNumber, AcceptsWholeDecimalTokens) {
  EXPECT_EQ(parse_number<int>("42"), 42);
  EXPECT_EQ(parse_number<int>("-7"), -7);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<double>("2.5"), 2.5);
  EXPECT_EQ(parse_number<double>("1e3"), 1000.0);
  EXPECT_EQ(parse_number<double>("-0.125"), -0.125);
}

TEST(ParseNumber, RejectsTrailingJunk) {
  EXPECT_FALSE(parse_number<int>("8x"));
  EXPECT_FALSE(parse_number<std::uint64_t>("12 "));
  EXPECT_FALSE(parse_number<double>("60x"));
  EXPECT_FALSE(parse_number<double>("1e3x"));
}

TEST(ParseNumber, RejectsOverflow) {
  EXPECT_FALSE(parse_number<int>("2147483648"));
  EXPECT_FALSE(parse_number<int>("-2147483649"));
  EXPECT_FALSE(parse_number<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(parse_number<double>("1e400"));
}

TEST(ParseNumber, RejectsFractionsAndExponentsWhereAnIntegerIsExpected) {
  for (const char* text : {"1e3", "2.7", "1.0"}) {
    EXPECT_FALSE(parse_number<int>(text)) << text;
    EXPECT_FALSE(parse_number<std::uint64_t>(text)) << text;
  }
  EXPECT_FALSE(parse_number<std::uint64_t>("-3"));
}

TEST(ParseNumber, RejectsNonFiniteHexEmptyAndPadded) {
  for (const char* text :
       {"nan", "inf", "-inf", "infinity", "0x10", "", " 5", "+5", "-"}) {
    EXPECT_FALSE(parse_number<int>(text)) << "'" << text << "'";
    EXPECT_FALSE(parse_number<std::uint64_t>(text)) << "'" << text << "'";
    EXPECT_FALSE(parse_number<double>(text)) << "'" << text << "'";
  }
}

// The message a failing reader call throws, or "" if it does not throw.
std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(SpecLine, ReadsRequiredAndOptionalFieldsInOrder) {
  SpecLine line("fault spec", 3, "  crash 2\t100.5 250 ");
  EXPECT_EQ(line.word("keyword"), "crash");
  EXPECT_EQ(line.read<int>("host id"), 2);
  EXPECT_EQ(line.read<double>("crash time"), 100.5);
  EXPECT_EQ(line.read_optional<double>("restart time"), 250.0);
  EXPECT_EQ(line.read_optional<double>("restart time"), std::nullopt);
  EXPECT_TRUE(line.at_end());
  EXPECT_EQ(error_of([&] { line.expect_end(); }), "");
}

TEST(SpecLine, MissingOrMalformedRequiredFieldFails) {
  SpecLine line("fault spec", 7, "crash 1e3x");
  line.word("keyword");
  EXPECT_EQ(error_of([&] { line.read<int>("host id"); }),
            "fault spec line 7: expected host id, got '1e3x'");
  EXPECT_EQ(error_of([&] { line.read<double>("crash time"); }),
            "fault spec line 7: expected crash time");
}

TEST(SpecLine, PresentButMalformedOptionalFieldFails) {
  SpecLine line("fault spec", 1, "crash 1 100 abc");
  line.word("keyword");
  line.read<int>("host id");
  line.read<double>("crash time");
  EXPECT_EQ(error_of([&] { line.read_optional<double>("restart time"); }),
            "fault spec line 1: expected restart time, got 'abc'");
}

TEST(SpecLine, ReadLastRejectsTrailingTokens) {
  SpecLine line("trace input", 5, "100 200");
  EXPECT_EQ(error_of([&] { line.read_last<double>("sample"); }),
            "trace input line 5: unexpected trailing token '200'");
}

TEST(SpecLine, ReadsKeyValueTokens) {
  SpecLine line("session spec", 4, "session 0 id=3 deadline=2.5 id=2.7 id");
  line.word("keyword");
  line.read<double>("arrival seconds");
  const auto id = line.read_key_value();
  ASSERT_TRUE(id);
  EXPECT_EQ(id->key, "id");
  EXPECT_EQ(line.value<int>(*id), 3);
  const auto deadline = line.read_key_value();
  ASSERT_TRUE(deadline);
  EXPECT_EQ(line.value<double>(*deadline), 2.5);
  const auto fraction = line.read_key_value();
  ASSERT_TRUE(fraction);
  EXPECT_EQ(error_of([&] { line.value<int>(*fraction); }),
            "session spec line 4: malformed value in 'id=2.7'");
  EXPECT_EQ(error_of([&] { line.read_key_value(); }),
            "session spec line 4: expected key=value, got 'id'");
  EXPECT_EQ(line.read_key_value(), std::nullopt);
}

TEST(ForEachSpecLine, SkipsCommentsAndBlankLinesAndCountsEveryLine) {
  std::vector<std::string> keywords;
  const int lines = for_each_spec_line(
      "test spec", "# header\n\nfoo # note\n   \t\nbar\n",
      [&](SpecLine& line) { keywords.push_back(line.word("keyword")); });
  EXPECT_EQ(lines, 5);
  EXPECT_EQ(keywords, (std::vector<std::string>{"foo", "bar"}));
  EXPECT_EQ(error_of([] {
              for_each_spec_line("test spec", "ok\n\nbad\n",
                                 [](SpecLine& line) {
                                   if (line.word("keyword") == "bad") {
                                     line.fail("no good");
                                   }
                                 });
            }),
            "test spec line 3: no good");
}

TEST(ForEachSpecLine, UnreadTrailingTokenFailsTheLine) {
  EXPECT_EQ(error_of([] {
              for_each_spec_line("session spec", "\ndefer_cap 30 extra\n",
                                 [](SpecLine& line) {
                                   line.word("keyword");
                                   line.read<double>("deferral cap seconds");
                                 });
            }),
            "session spec line 2: unexpected trailing token 'extra'");
}

TEST(ReadSpecFile, MissingFileNamesSpecAndPath) {
  EXPECT_EQ(error_of([] { read_spec_file("fault spec", "/nonexistent/f"); }),
            "cannot open fault spec: /nonexistent/f");
}

}  // namespace
}  // namespace wadc
