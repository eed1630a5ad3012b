// Unit tests for the image workload.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/model_constants.h"
#include "workload/image_workload.h"

namespace wadc::workload {
namespace {

TEST(Compose, OutputIsTheLargerImage) {
  const ImageSpec a{100.0, 1};
  const ImageSpec b{250.0, 2};
  EXPECT_DOUBLE_EQ(compose(a, b).bytes, 250.0);
  EXPECT_DOUBLE_EQ(compose(b, a).bytes, 250.0);
}

TEST(Compose, LineageIsOrderSensitive) {
  const ImageSpec a{100.0, 1};
  const ImageSpec b{250.0, 2};
  EXPECT_NE(compose(a, b).lineage, compose(b, a).lineage);
}

TEST(Compose, LineageDistinguishesInputs) {
  const ImageSpec a{100.0, 1};
  const ImageSpec b{100.0, 2};
  const ImageSpec c{100.0, 3};
  EXPECT_NE(compose(a, b).lineage, compose(a, c).lineage);
}

TEST(Lineage, LeavesAreUnique) {
  std::set<std::uint64_t> seen;
  for (int s = 0; s < 32; ++s) {
    for (int i = 0; i < 180; ++i) {
      EXPECT_TRUE(seen.insert(lineage_leaf(s, i)).second)
          << "collision at " << s << "," << i;
    }
  }
}

TEST(ImageWorkload, DeterministicInSeed) {
  const WorkloadParams params;
  const ImageWorkload w1(params, 4, 77);
  const ImageWorkload w2(params, 4, 77);
  for (int s = 0; s < 4; ++s) {
    for (int i = 0; i < params.iterations; ++i) {
      EXPECT_EQ(w1.image(s, i), w2.image(s, i));
    }
  }
}

TEST(ImageWorkload, DifferentSeedsDiffer) {
  const WorkloadParams params;
  const ImageWorkload w1(params, 2, 1);
  const ImageWorkload w2(params, 2, 2);
  int diffs = 0;
  for (int i = 0; i < params.iterations; ++i) {
    if (!(w1.image(0, i) == w2.image(0, i))) ++diffs;
  }
  EXPECT_GT(diffs, 100);
}

TEST(ImageWorkload, SizesMatchTheFittedDistribution) {
  // §4: normal, mean 128KB, sigma 25% of mean. With 32*180 samples the
  // sample mean is within ~1% and the sample sigma within ~10%.
  WorkloadParams params;
  const ImageWorkload w(params, 32, 3);
  double sum = 0, sum_sq = 0;
  const int n = 32 * params.iterations;
  for (int s = 0; s < 32; ++s) {
    for (int i = 0; i < params.iterations; ++i) {
      const double b = w.image(s, i).bytes;
      sum += b;
      sum_sq += b * b;
    }
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 128.0 * 1024, 0.02 * 128 * 1024);
  EXPECT_NEAR(std::sqrt(var), 0.25 * 128 * 1024, 0.05 * 128 * 1024);
}

TEST(ImageWorkload, SizesRespectTheFloor) {
  // The floor sits 3.75 sigma below the mean; seed 27 draws one image
  // below it, which the sampler raises to the floor exactly.
  const WorkloadParams params;
  const ImageWorkload w(params, 8, 27);
  int at_floor = 0;
  for (int s = 0; s < 8; ++s) {
    for (int i = 0; i < params.iterations; ++i) {
      EXPECT_GE(w.image(s, i).bytes, kMinImageBytes);
      if (w.image(s, i).bytes == kMinImageBytes) ++at_floor;
    }
  }
  EXPECT_EQ(at_floor, 1);
}

TEST(ImageWorkload, CostHelpers) {
  WorkloadParams params;
  const ImageWorkload w(params, 2, 1);
  const ImageSpec img{3.0e6, 0};
  EXPECT_DOUBLE_EQ(w.disk_seconds(img), 1.0);              // 3 MB at 3 MB/s
  EXPECT_DOUBLE_EQ(w.compose_seconds(img), 3.0e6 * 7e-6);  // 7 us/pixel
}

TEST(ImageWorkload, ObservedMeanIsCloseToConfigured) {
  const WorkloadParams params;
  const ImageWorkload w(params, 16, 9);
  EXPECT_NEAR(w.observed_mean_bytes(), kMeanImageBytes,
              0.03 * kMeanImageBytes);
}

TEST(ImageWorkload, LineagesAcrossServersAreDistinct) {
  const WorkloadParams params;
  const ImageWorkload w(params, 8, 11);
  std::set<std::uint64_t> seen;
  for (int s = 0; s < 8; ++s) {
    for (int i = 0; i < params.iterations; ++i) {
      EXPECT_TRUE(seen.insert(w.image(s, i).lineage).second);
    }
  }
}

}  // namespace
}  // namespace wadc::workload
