// Heap-allocation counter for the steady-state allocation tests.
//
// alloc_counter.cc replaces the global operator new/delete with versions
// that count every allocation in the process, on every thread.  Only the
// facsp_alloc_tests binary links it, so the counter never observes the
// unrelated suites in facsp_tests.
#pragma once
#include <cstddef>

namespace facsp::testutil {

/// Heap allocations made through operator new in this process so far.
std::size_t allocations();

}  // namespace facsp::testutil
