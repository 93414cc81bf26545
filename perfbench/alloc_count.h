/**
 * @file
 * Heap-allocation counter: the benchmark binary replaces the global
 * operator new, so every allocation the library makes is counted on the
 * thread that made it. Reading the count around a call gives that call's
 * allocations without any change to the library.
 */
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include "common/types.h"

namespace perfbench {

/** operator new calls made so far by the calling thread. */
dth::u64 threadAllocs();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_H_
