#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {

// Per-thread, so the fleet's workers never contend on the counter.
thread_local dth::u64 tAllocs = 0;

void *
countedAlloc(std::size_t n)
{
    ++tAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

dth::u64
perfbench::threadAllocs()
{
    return tAllocs;
}

// Every non-aligned form is replaced, so each allocation is counted once
// and freed by the matching replacement. The aligned forms are left to
// the runtime: they allocate and free through their own operators.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++tAllocs;
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    ++tAllocs;
    return std::malloc(n ? n : 1);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
