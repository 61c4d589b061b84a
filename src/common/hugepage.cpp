#include "common/hugepage.hpp"

#include <atomic>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace lorm {

namespace {

constexpr std::size_t kHugeSize = std::size_t{2} << 20;  // 2 MiB

// Requests below this stay on the ordinary allocator: a 2 MiB mapping
// per tiny vector would waste the reserved pool and the mmap round-trips
// would dominate small-ring construction. 256 KiB keeps every slab a hot
// lookup path walks (node headers included) on hugepages while the many
// small test rings stay cheap.
constexpr std::size_t kMapThreshold = std::size_t{256} << 10;

// Small slabs still hold alignas(64) node headers: ::operator new(bytes)
// only guarantees 16-byte alignment, so they take the aligned form (mmap
// mappings are page-aligned already).
constexpr std::align_val_t kSmallAlign{64};

std::size_t RoundToHuge(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  return (bytes + kHugeSize - 1) & ~(kHugeSize - 1);
}

std::atomic<bool> g_huge_in_use{false};

}  // namespace

void* HugeAlloc(std::size_t bytes) {
#if defined(__linux__)
  // HugeFree sees the same byte count, so the paths pair up
  // deterministically.
  if (bytes < kMapThreshold) return ::operator new(bytes, kSmallAlign);
  const std::size_t len = RoundToHuge(bytes);
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
  if (p != MAP_FAILED) {
    g_huge_in_use.store(true, std::memory_order_relaxed);
    return p;
  }
  // Pool empty or unconfigured: same length on ordinary pages, so HugeFree
  // never needs to know which path an allocation took.
  p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) return p;
  throw std::bad_alloc();
#else
  return ::operator new(bytes, kSmallAlign);
#endif
}

void HugeFree(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
#if defined(__linux__)
  if (bytes < kMapThreshold) {
    ::operator delete(p, kSmallAlign);
    return;
  }
  ::munmap(p, RoundToHuge(bytes));
#else
  ::operator delete(p, kSmallAlign);
  (void)bytes;
#endif
}

bool HugePagesInUse() noexcept {
  return g_huge_in_use.load(std::memory_order_relaxed);
}

}  // namespace lorm
