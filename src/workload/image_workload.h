// The satellite-image composition workload (§4).
//
// Each of the S servers delivers a sequence of 180 images; corresponding
// images are composed pairwise (pixel-by-pixel selection) and a sequence of
// 180 composed images is delivered to the client. Image sizes follow the
// paper's study of 1000+ hurricane images from 15 web sites: normal with
// mean 128KB (kMeanImageBytes) and 25% sigma. Composition costs 7
// microseconds per pixel (kComputeSecondsPerByte) and the output has the
// size of the larger input (the smaller image is expanded). Disk reads run
// at 3 MB/s (kDiskBytesPerSecond).
//
// Pixel data itself never influences timing, so images carry only their
// size and a lineage digest; the digest lets tests verify that the engine
// composed exactly the right partitions in the right structure no matter
// where operators ran.
#pragma once

#include <cstdint>
#include <vector>

#include "common/model_constants.h"
#include "common/rng.h"

namespace wadc::workload {

struct ImageSpec {
  double bytes = 0;
  std::uint64_t lineage = 0;  // digest of the partition's composition tree

  bool operator==(const ImageSpec&) const = default;
};

// The image-size spread (sigma as a fraction of the mean) and the sampler's
// truncation floor.
inline constexpr double kImageSigmaFraction = 0.25;
inline constexpr double kMinImageBytes = 8.0 * 1024;

struct WorkloadParams {
  int iterations = 180;  // images per server (§4)
};

// Digest used to build lineage values; order-sensitive, so tests can detect
// swapped operands as well as wrong partitions.
std::uint64_t lineage_leaf(int server, int iteration);
std::uint64_t lineage_combine(std::uint64_t left, std::uint64_t right);

// Composes two images: output size is the larger input (§4), lineage is the
// ordered combination of the input lineages.
ImageSpec compose(const ImageSpec& left, const ImageSpec& right);

class ImageWorkload {
 public:
  // Generates the full image schedule for `num_servers` servers,
  // deterministically from the seed.
  ImageWorkload(const WorkloadParams& params, int num_servers,
                std::uint64_t seed);

  int num_servers() const { return num_servers_; }
  int iterations() const { return params_.iterations; }

  const ImageSpec& image(int server, int iteration) const;

  double disk_seconds(const ImageSpec& img) const {
    return img.bytes / kDiskBytesPerSecond;
  }
  double compose_seconds(const ImageSpec& out) const {
    return out.bytes * kComputeSecondsPerByte;
  }

  // Mean image size actually drawn for this workload (useful for cost
  // models and tests).
  double observed_mean_bytes() const;

 private:
  WorkloadParams params_;
  int num_servers_;
  std::vector<ImageSpec> images_;  // [server * iterations + iteration]
};

}  // namespace wadc::workload
