// Tests for trace persistence (trace/io.h).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/generator.h"
#include "trace/io.h"
#include "trace/library.h"

namespace wadc::trace {
namespace {

TEST(TraceIo, RoundTripsASingleTrace) {
  const BandwidthTrace original(10.0, {100.5, 200.25, 50.125});
  std::stringstream buffer;
  save_trace(original, buffer);
  const BandwidthTrace loaded = load_trace(buffer);
  EXPECT_DOUBLE_EQ(loaded.step_seconds(), 10.0);
  EXPECT_EQ(loaded.values(), original.values());
}

TEST(TraceIo, RoundTripsAGeneratedTrace) {
  const TraceGenerator gen(TraceGenParams{}, 3);
  const auto original = gen.generate(PairClass::kTransatlantic, 5);
  std::stringstream buffer;
  save_trace(original, buffer);
  const auto loaded = load_trace(buffer);
  EXPECT_EQ(loaded.values(), original.values());
  EXPECT_DOUBLE_EQ(loaded.step_seconds(), original.step_seconds());
}

TEST(TraceIo, RoundTripsATraceSet) {
  std::vector<BandwidthTrace> originals;
  originals.emplace_back(5.0, std::vector<double>{10, 20});
  originals.emplace_back(7.0, std::vector<double>{30, 40, 50});
  std::stringstream buffer;
  save_trace_set(originals, buffer);
  const auto loaded = load_trace_set(buffer);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].values(), originals[0].values());
  EXPECT_EQ(loaded[1].values(), originals[1].values());
  EXPECT_DOUBLE_EQ(loaded[1].step_seconds(), 7.0);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buffer("not-a-trace v9\n");
  EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedInput) {
  std::stringstream buffer("wadc-trace v1\nstep 10\nsamples 5\n1\n2\n");
  EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsMalformedNumbersNamingTheLine) {
  for (const char* text :
       {"wadc-trace v1\nstep 10\nsamples 2\n100\n200junk\n",
        "wadc-trace v1\nstep 10\nsamples 2\n100\n1 2\n",
        "wadc-trace v1\nstep 10\nsamples 2.5\n100\n200\n"}) {
    std::stringstream buffer(text);
    try {
      load_trace(buffer);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("trace input line"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceIo, RejectsAnEmptyTraceSet) {
  std::stringstream buffer("wadc-trace-set v1\ncount 0\n");
  EXPECT_THROW(load_trace_set(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsNonPositiveSamples) {
  std::stringstream buffer("wadc-trace v1\nstep 10\nsamples 2\n100\n-5\n");
  EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsZeroStep) {
  std::stringstream buffer("wadc-trace v1\nstep 0\nsamples 1\n100\n");
  EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const BandwidthTrace original(10.0, {11, 22, 33});
  const std::string path = ::testing::TempDir() + "/wadc_trace_test.txt";
  save_trace_file(original, path);
  const auto loaded = load_trace_file(path);
  EXPECT_EQ(loaded.values(), original.values());
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace_file("/nonexistent/path/to/trace.txt"),
               std::runtime_error);
}

TEST(TraceIo, LoadedTracesFeedATraceLibrary) {
  // The adoption path: measure your own links, save them, build a library.
  const TraceGenerator gen(TraceGenParams{}, 8);
  std::vector<BandwidthTrace> measured;
  for (std::uint64_t i = 0; i < 5; ++i) {
    measured.push_back(gen.generate(PairClass::kCrossCountry, i));
  }
  std::stringstream buffer;
  save_trace_set(measured, buffer);

  const TraceLibrary library(load_trace_set(buffer));
  EXPECT_EQ(library.size(), 5u);
  EXPECT_EQ(library.trace(2).values(), measured[2].values());
  EXPECT_EQ(library.trace_class(0), PairClass::kCrossCountry);
}

TEST(TraceLibrary, ExternalTracesWithClasses) {
  std::vector<BandwidthTrace> traces;
  traces.emplace_back(10.0, std::vector<double>{100});
  traces.emplace_back(10.0, std::vector<double>{200});
  const TraceLibrary library(std::move(traces),
                             {PairClass::kRegional,
                              PairClass::kIntercontinental});
  EXPECT_EQ(library.trace_class(0), PairClass::kRegional);
  EXPECT_EQ(library.trace_class(1), PairClass::kIntercontinental);
}

}  // namespace
}  // namespace wadc::trace
