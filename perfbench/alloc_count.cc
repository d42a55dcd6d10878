#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace tapo::perfbench {

thread_local AllocTally* t_alloc_tally = nullptr;

namespace {

void* counted_alloc(std::size_t n) {
  if (AllocTally* tally = t_alloc_tally) {
    ++tally->allocs;
    tally->bytes += n;
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace
}  // namespace tapo::perfbench

// libstdc++ routes the array and nothrow forms through these, so replacing
// the scalar pair counts every unaligned allocation.
void* operator new(std::size_t n) {
  if (void* p = tapo::perfbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return tapo::perfbench::counted_alloc(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return tapo::perfbench::counted_alloc(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
