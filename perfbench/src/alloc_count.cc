#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

// Trivially initialised thread-locals: reading them inside operator new
// needs no TLS constructor (which could itself allocate).
thread_local bool t_bench_thread = false;
thread_local uint64_t t_allocs = 0;
std::atomic<bool> g_count_foreign{false};
std::atomic<uint64_t> g_foreign_allocs{0};

inline void Count() {
  if (t_bench_thread) {
    ++t_allocs;
  } else if (g_count_foreign.load(std::memory_order_relaxed)) {
    g_foreign_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t size) {
  Count();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Count();
  void* p = nullptr;
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void RegisterThread() { t_bench_thread = true; }
uint64_t ThreadCount() { return t_allocs; }
void CountForeign(bool on) {
  g_count_foreign.store(on, std::memory_order_relaxed);
}
uint64_t ForeignCount() {
  return g_foreign_allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench::alloc

using perfbench::alloc::Allocate;
using perfbench::alloc::AllocateAligned;

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
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
