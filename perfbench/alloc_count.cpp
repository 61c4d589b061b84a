// Counts heap allocations by replacing the global operator new. Every
// replaceable form is replaced, plain, array, aligned and nothrow, with
// every matching delete: a runtime that supplies its own forms, such as a
// sanitizer's, would otherwise pair its allocation with this file's free().
// The benchmark drives the services from one thread; that thread's count is
// read around Query() calls to give <sys>.allocs_per_query.
#include <cstddef>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
// Per thread, so counting costs a plain increment rather than a locked
// read-modify-write inside every timed Query().
thread_local std::uint64_t t_allocs = 0;

void* Allocate(std::size_t size, std::size_t align) noexcept {
  ++t_allocs;
  if (align <= alignof(std::max_align_t)) return std::malloc(size == 0 ? 1 : size);
  // aligned_alloc needs a size that is a non-zero multiple of the alignment.
  return std::aligned_alloc(align, size == 0 ? align : (size + align - 1) / align * align);
}

void* AllocateOrThrow(std::size_t size, std::size_t align) {
  if (void* p = Allocate(size, align)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace perfbench {
std::uint64_t AllocCount() { return t_allocs; }
}  // namespace perfbench

using Align = std::align_val_t;
using Nothrow = std::nothrow_t;

void* operator new(std::size_t n) { return AllocateOrThrow(n, 0); }
void* operator new[](std::size_t n) { return AllocateOrThrow(n, 0); }
void* operator new(std::size_t n, Align a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, Align a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const Nothrow&) noexcept { return Allocate(n, 0); }
void* operator new[](std::size_t n, const Nothrow&) noexcept { return Allocate(n, 0); }
void* operator new(std::size_t n, Align a, const Nothrow&) noexcept {
  return Allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, Align a, const Nothrow&) noexcept {
  return Allocate(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, Align) noexcept { std::free(p); }
void operator delete[](void* p, Align) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, Align) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, Align) noexcept { std::free(p); }
void operator delete(void* p, const Nothrow&) noexcept { std::free(p); }
void operator delete[](void* p, const Nothrow&) noexcept { std::free(p); }
void operator delete(void* p, Align, const Nothrow&) noexcept { std::free(p); }
void operator delete[](void* p, Align, const Nothrow&) noexcept { std::free(p); }
