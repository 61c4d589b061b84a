// Hugepage-backed allocation for the large flat slabs (node headers, link
// extents) the DHT hot paths walk.
//
// Why it matters: the batched lookup engine hides cache-miss latency with
// software prefetches, but x86 silently drops a prefetch whose page walk
// misses the TLB. A million-node ring's link slab spans hundreds of MB —
// thousands of 4 KiB pages, far beyond second-level TLB coverage — so on
// small pages a large fraction of the pipeline's prefetches die and the
// walk pays full memory latency anyway. Backing the slab with 2 MiB pages
// cuts the page count by 512x and keeps the whole slab TLB-resident.
//
// Strategy: try an explicit hugetlb mapping first (MAP_HUGETLB, available
// even on kernels with transparent hugepages disabled, if the admin
// reserved pages via /proc/sys/vm/nr_hugepages). If the pool is empty or
// unconfigured, fall back to an ordinary anonymous mapping of the same
// rounded length — correctness never depends on the reservation. Both
// paths round the length identically so deallocation is uniform.
#pragma once

#include <cstddef>
#include <new>

namespace lorm {

/// Maps `bytes` (rounded up to the 2 MiB hugepage size) of zeroed memory,
/// hugetlb-backed when the system pool allows, anonymous 4 KiB pages
/// otherwise. Throws std::bad_alloc only if both mappings fail. Requests
/// below 256 KiB come from the ordinary allocator instead, 64-byte aligned
/// (the slabs' alignas(64) node headers need it).
void* HugeAlloc(std::size_t bytes);

/// Releases a HugeAlloc mapping. `bytes` must be the original request.
void HugeFree(void* p, std::size_t bytes) noexcept;

/// True if any HugeAlloc call in this process obtained real hugetlb pages
/// (telemetry for benchmarks/experiments; false means every allocation fell
/// back to 4 KiB pages).
bool HugePagesInUse() noexcept;

/// Minimal STL allocator over HugeAlloc/HugeFree, for the slab vectors.
/// Stateless: all instances are interchangeable.
template <typename T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(HugeAlloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    HugeFree(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const HugePageAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace lorm
