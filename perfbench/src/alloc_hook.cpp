// Global operator new/delete replacements that count heap allocations.
//
// Compiled into the benchmark binary only, never into the library.  Counting
// is off until alloc_counting(true): the end-to-end runs pay one predictable
// branch per allocation, and the traced run switches it on around the
// sessions it counts.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};

void note(std::size_t size) noexcept {
  if (g_on.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t size) {
  note(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  note(size);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace aabench {

void alloc_counting(bool on) { g_on.store(on, std::memory_order_relaxed); }

AllocCount alloc_snapshot() {
  return {g_count.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace aabench

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t a) {
  return allocate_aligned(size, a);
}
void* operator new[](std::size_t size, std::align_val_t a) {
  return allocate_aligned(size, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
