// Instrumented global allocator for tests that bound or forbid heap
// allocation in a measured window. Counting is gated on g_count_allocs, so
// gtest bookkeeping outside the window stays free. This header defines the
// replaceable global operator new and delete: include it from exactly one
// source file of a test binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::size_t> g_largest_alloc{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t largest = g_largest_alloc.load(std::memory_order_relaxed);
    while (size > largest && !g_largest_alloc.compare_exchange_weak(
                                 largest, size, std::memory_order_relaxed)) {
    }
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
