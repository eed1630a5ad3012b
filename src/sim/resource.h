// Counted resource (semaphore) with FIFO waiters and RAII holds.
//
// Models serially-shared facilities such as a server's disk. Waiters are
// served in arrival order. Units released while processes wait are handed
// directly to the oldest waiter, so a late arrival can never overtake it.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>

#include "common/assert.h"
#include "sim/simulation.h"

namespace wadc::sim {

class Resource;

// RAII hold on one unit of a Resource; releases on destruction.
class [[nodiscard]] ResourceHold {
 public:
  ResourceHold() = default;
  explicit ResourceHold(Resource* r) : resource_(r) {}
  ResourceHold(ResourceHold&& o) noexcept
      : resource_(std::exchange(o.resource_, nullptr)) {}
  ResourceHold& operator=(ResourceHold&& o) noexcept;
  ResourceHold(const ResourceHold&) = delete;
  ResourceHold& operator=(const ResourceHold&) = delete;
  ~ResourceHold() { release(); }

  void release();
  bool holds() const { return resource_ != nullptr; }

 private:
  Resource* resource_ = nullptr;
};

class Resource {
 public:
  Resource(Simulation& sim, std::int64_t units = 1)
      : sim_(sim), units_(units) {
    WADC_ASSERT(units >= 0, "negative resource capacity");
  }

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  // Awaitable: acquires one unit, returning a ResourceHold.
  auto acquire() { return AcquireAwaiter{this, {}}; }

  std::int64_t available() const { return units_; }

  struct AcquireAwaiter {
    Resource* resource;
    std::coroutine_handle<> handle;

    bool await_ready() {
      if (resource->units_ <= 0) return false;
      --resource->units_;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      resource->waiters_.push_back(this);
    }
    ResourceHold await_resume() { return ResourceHold{resource}; }
  };

 private:
  friend class ResourceHold;

  void release_unit() {
    if (!waiters_.empty()) {
      AcquireAwaiter* w = waiters_.front();
      waiters_.pop_front();
      // The unit transfers directly to the woken waiter.
      sim_.schedule_at(sim_.now(), [w] { w->handle.resume(); });
    } else {
      ++units_;
    }
  }

  Simulation& sim_;
  std::int64_t units_;
  std::deque<AcquireAwaiter*> waiters_;
};

inline ResourceHold& ResourceHold::operator=(ResourceHold&& o) noexcept {
  if (this != &o) {
    release();
    resource_ = std::exchange(o.resource_, nullptr);
  }
  return *this;
}

inline void ResourceHold::release() {
  if (resource_ != nullptr) {
    resource_->release_unit();
    resource_ = nullptr;
  }
}

}  // namespace wadc::sim
