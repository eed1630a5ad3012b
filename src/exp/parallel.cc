#include "exp/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "common/parse.h"

namespace wadc::exp {

namespace {

int hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

std::optional<int> parse_jobs(std::string_view text) {
  const std::optional<int> jobs = parse_number<int>(text);
  if (!jobs || *jobs < 0) return std::nullopt;
  return *jobs == 0 ? hardware_jobs() : *jobs;
}

int env_jobs(int fallback) {
  const std::optional<int> jobs = env_number<int>("WADC_JOBS", 0);
  if (!jobs) return fallback;
  return *jobs == 0 ? hardware_jobs() : *jobs;
}

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  return env_jobs(/*fallback=*/1);
}

void parallel_for(int n, int jobs, const std::function<void(int)>& fn) {
  parallel_for(n, jobs, [&fn](int i, int /*worker*/) { fn(i); });
}

void parallel_for(int n, int jobs,
                  const std::function<void(int, int)>& fn) {
  WADC_ASSERT(n >= 0, "parallel_for over negative range: ", n);
  const int workers = std::min(jobs, n);
  if (workers <= 1) {
    for (int i = 0; i < n; ++i) fn(i, 0);
    return;
  }

  // Indices are claimed in chunks — one fetch_add per chunk, not per item —
  // and the shared atomics each get their own cache line so the claim
  // counter and the failure flag never false-share (with each other or
  // with the stack around them). The chunk size caps claim traffic at
  // roughly 16 claims per worker while still letting the pool rebalance
  // when cells run long.
  struct alignas(64) PaddedCounter {
    std::atomic<int> value{0};
  };
  struct alignas(64) PaddedFlag {
    std::atomic<bool> value{false};
  };
  const int chunk = std::max(1, n / (workers * 16));
  PaddedCounter next;
  PaddedFlag failed;
  std::mutex error_mu;
  std::exception_ptr first_error;
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        for (;;) {
          if (failed.value.load(std::memory_order_relaxed)) return;
          const int begin =
              next.value.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= n) return;
          const int end = std::min(n, begin + chunk);
          for (int i = begin; i < end; ++i) {
            if (failed.value.load(std::memory_order_relaxed)) return;
            try {
              fn(i, w);
            } catch (...) {
              std::lock_guard<std::mutex> lock(error_mu);
              if (!first_error) first_error = std::current_exception();
              failed.value.store(true, std::memory_order_relaxed);
            }
          }
        }
      });
    }
  }  // std::jthread joins on destruction
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace wadc::exp
