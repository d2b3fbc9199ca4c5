// Instrumented global allocator for tests that bound or forbid heap
// allocation in a measured window. Counting is gated on g_count_allocs, so
// gtest bookkeeping outside the window stays free. This header defines the
// replaceable global operator new and delete: include it from exactly one
// source file of a test binary.
//
// Live bytes are malloc_usable_size of each block: added when a block is
// allocated inside the window, taken off when any block is freed inside it
// (so blocks from before the window can drive the count below zero).
// g_peak_live_bytes is the largest g_live_bytes seen; reset both to zero to
// measure a window's peak growth.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::size_t> g_largest_alloc{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};

template <class T>
void raise_to(std::atomic<T>& max, T value) {
  T seen = max.load(std::memory_order_relaxed);
  while (value > seen &&
         !max.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    raise_to(g_largest_alloc, size);
    const auto usable = static_cast<std::int64_t>(malloc_usable_size(p));
    raise_to(g_peak_live_bytes,
             g_live_bytes.fetch_add(usable, std::memory_order_relaxed) + usable);
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr && g_count_allocs.load(std::memory_order_relaxed)) {
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
