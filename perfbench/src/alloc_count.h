#pragma once

#include <cstdint>

/// Heap-allocation counting for the benchmark binary.
///
/// `alloc_count.cc` replaces the global `operator new`/`operator delete`, so
/// every allocation the program makes inside this process goes through it.
/// Threads the benchmark starts itself are registered and count on a plain
/// thread-local counter, read by the span recorder at span start and end, so
/// each allocation lands on the layer call in progress on that thread. Threads
/// the program starts (executor workers, transport I/O loops) are "foreign":
/// their allocations go to one shared atomic counter, and only while foreign
/// counting is switched on (traced runs), so untraced runs pay no contended
/// atomic per allocation.
namespace perfbench::alloc {

/// Makes the calling thread a benchmark thread.
void RegisterThread();
/// Allocations made so far by the calling benchmark thread (0 elsewhere).
uint64_t ThreadCount();
/// Switches counting of foreign-thread allocations on or off.
void CountForeign(bool on);
/// Allocations counted on foreign threads while foreign counting was on.
uint64_t ForeignCount();

}  // namespace perfbench::alloc
