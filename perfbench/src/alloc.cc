// Heap-allocation interposer with per-thread counts: replaces the
// global operator new/delete with wrappers over malloc/free that count
// into a slot owned by the calling thread. Each slot has one writer, so
// counting needs no atomic read-modify-write on the hot path, and
// allocations can be attributed to a thread role (producer versus the
// library's own drain threads) instead of a process-global total.

#include "alloc.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

constexpr int kMaxSlots = 256;

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
  std::atomic<int> role{0};
};

Slot g_slots[kMaxSlots];
std::atomic<int> g_next_slot{0};
// Threads beyond kMaxSlots share the last slot; it is counted with an
// atomic add because it has more than one writer.
constexpr int kSharedSlot = kMaxSlots - 1;
thread_local int t_slot = -1;

int MySlot() {
  if (t_slot < 0) {
    int slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot = slot < kSharedSlot ? slot : kSharedSlot;
  }
  return t_slot;
}

void Count() {
  Slot& slot = g_slots[MySlot()];
  if (t_slot == kSharedSlot) {
    slot.count.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot.count.store(slot.count.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  }
}

void* CountedAlloc(std::size_t size) {
  Count();
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  Count();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void SetThreadRole(ThreadRole role) {
  g_slots[MySlot()].role.store(static_cast<int>(role),
                               std::memory_order_relaxed);
}

uint64_t ThreadAllocCount() {
  return g_slots[MySlot()].count.load(std::memory_order_relaxed);
}

uint64_t RoleAllocCount(ThreadRole role) {
  const int used = g_next_slot.load(std::memory_order_relaxed);
  const int end = used < kMaxSlots ? used : kMaxSlots;
  uint64_t total = 0;
  for (int i = 0; i < end; ++i) {
    if (g_slots[i].role.load(std::memory_order_relaxed) ==
        static_cast<int>(role)) {
      total += g_slots[i].count.load(std::memory_order_relaxed);
    }
  }
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  void* p = perfbench::CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = perfbench::CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = perfbench::CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = perfbench::CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
