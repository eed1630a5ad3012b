// Cold paths of the arena: block growth, epoch reset, and the headered
// global-allocator fallback. The freelist fast paths are inline in
// arena.h.
#include "sim/arena.h"

#include <cstdlib>

namespace wadc::sim {

namespace detail {

// Global-allocator path, headered so pooled_delete stays uniform. Uses
// malloc directly: when WADC_POOLED_GLOBAL_NEW replaces ::operator new
// with pooled_new, calling ::operator new here would recurse.
void* global_new(std::size_t size, std::size_t total) {
  void* raw = std::malloc(total);
  if (raw == nullptr) throw std::bad_alloc();
  auto* header = static_cast<AllocHeader*>(raw);
  header->owner = nullptr;
  header->total = total;
  ++tls_global.global_news;
  tls_global.global_bytes += size;
  return header + 1;
}

void global_free(AllocHeader* header) noexcept {
  ++tls_global.global_deletes;
  std::free(header);
}

}  // namespace detail

Arena::~Arena() {
  Block* b = first_;
  while (b != nullptr) {
    Block* next = b->next;
    WADC_ARENA_UNPOISON(block_data(b), kBlockBytes - sizeof(Block));
    std::free(b);
    b = next;
  }
}

void* Arena::bump(std::size_t bytes) {
  constexpr std::size_t kCapacity = kBlockBytes - sizeof(Block);
  while (head_ != nullptr && head_->used + bytes > kCapacity) {
    // After a rewind the list already holds warm blocks; walk before
    // growing.
    if (head_->next == nullptr) break;
    head_ = head_->next;
  }
  if (head_ == nullptr || head_->used + bytes > kCapacity) {
    auto* b = static_cast<Block*>(std::malloc(kBlockBytes));
    if (b == nullptr) throw std::bad_alloc();
    b->next = nullptr;
    b->used = 0;
    WADC_ARENA_POISON(block_data(b), kCapacity);
    if (head_ != nullptr) head_->next = b;
    head_ = b;
    if (first_ == nullptr) first_ = b;
    ++stats_.block_allocs;
    ++detail::tls_global.global_news;  // the one malloc this path makes
    detail::tls_global.global_bytes += kBlockBytes;
  }
  void* p = block_data(head_) + head_->used;
  head_->used += bytes;
  WADC_ARENA_UNPOISON(p, bytes);
  return p;
}

void Arena::reset() {
  ++stats_.resets;
  if (stats_.outstanding != 0) {
    // Live allocations escaped the epoch (e.g. what a run recorded into
    // obs sinks the caller still owns). Rewinding would recycle their
    // storage, so reuse continues through the free lists alone — safe, and
    // still allocation-free once warm.
    return;
  }
  for (std::size_t i = 0; i < kNumClasses; ++i) free_[i] = nullptr;
  for (Block* b = first_; b != nullptr; b = b->next) {
    b->used = 0;
    WADC_ARENA_POISON(block_data(b), kBlockBytes - sizeof(Block));
  }
  head_ = first_;
}

}  // namespace wadc::sim
