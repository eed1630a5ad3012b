#include "workload/image_workload.h"

#include <algorithm>

#include "common/assert.h"

namespace wadc::workload {

std::uint64_t lineage_leaf(int server, int iteration) {
  // SplitMix-style mix of the (server, iteration) coordinates.
  std::uint64_t x = (static_cast<std::uint64_t>(server) << 32) |
                    static_cast<std::uint32_t>(iteration);
  x ^= 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t lineage_combine(std::uint64_t left, std::uint64_t right) {
  // Non-commutative mix so operand order matters.
  std::uint64_t x = left * 0xff51afd7ed558ccdULL + 0x2545f4914f6cdd1dULL;
  x ^= right + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
  x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

ImageSpec compose(const ImageSpec& left, const ImageSpec& right) {
  ImageSpec out;
  out.bytes = std::max(left.bytes, right.bytes);
  out.lineage = lineage_combine(left.lineage, right.lineage);
  return out;
}

ImageWorkload::ImageWorkload(const WorkloadParams& params, int num_servers,
                             std::uint64_t seed)
    : params_(params), num_servers_(num_servers) {
  WADC_ASSERT(num_servers >= 1, "need at least one server");
  WADC_ASSERT(params_.iterations >= 1, "need at least one iteration");
  images_.reserve(static_cast<std::size_t>(num_servers) *
                  static_cast<std::size_t>(params_.iterations));
  constexpr double sigma = kMeanImageBytes * kImageSigmaFraction;
  for (int s = 0; s < num_servers; ++s) {
    Rng rng = Rng(seed).fork(0x1111aaaa + static_cast<std::uint64_t>(s));
    for (int i = 0; i < params_.iterations; ++i) {
      ImageSpec img;
      img.bytes = std::max(rng.normal(kMeanImageBytes, sigma), kMinImageBytes);
      img.lineage = lineage_leaf(s, i);
      images_.push_back(img);
    }
  }
}

const ImageSpec& ImageWorkload::image(int server, int iteration) const {
  WADC_ASSERT(server >= 0 && server < num_servers_, "bad server index");
  WADC_ASSERT(iteration >= 0 && iteration < params_.iterations,
              "bad iteration index");
  return images_[static_cast<std::size_t>(server) *
                     static_cast<std::size_t>(params_.iterations) +
                 static_cast<std::size_t>(iteration)];
}

double ImageWorkload::observed_mean_bytes() const {
  double sum = 0;
  for (const ImageSpec& img : images_) sum += img.bytes;
  return sum / static_cast<double>(images_.size());
}

}  // namespace wadc::workload
