#include "perfbench/alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_count{0};
std::atomic<uint64_t> g_bytes{0};
std::atomic<bool> g_serve_window{false};
thread_local int t_in_call = 0;
thread_local bool t_client = false;

inline void Note(std::size_t size) {
  if (t_in_call > 0 ||
      (!t_client && g_serve_window.load(std::memory_order_relaxed))) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t size) {
  Note(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Note(size);
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

AllocTotals CountedAllocs() {
  return {g_count.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

void MarkClientThread() { t_client = true; }

ProgramCall::ProgramCall() { ++t_in_call; }
ProgramCall::~ProgramCall() { --t_in_call; }

ServeWindow::ServeWindow() {
  g_serve_window.store(true, std::memory_order_seq_cst);
}
ServeWindow::~ServeWindow() {
  g_serve_window.store(false, std::memory_order_seq_cst);
}

}  // namespace perfbench

// Every replaceable allocation form routes through the counters above.
void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return perfbench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return perfbench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
