// Allocation accounting for the benchmark binary.
//
// alloc_count.cc replaces the global operator new/delete. Every allocation
// made on a thread whose `t_alloc_tally` points somewhere is added to that
// tally; the span recorder (spans.h) points it at the innermost open span,
// so each allocation is attributed to exactly one layer. With no span open
// the pointer is null and an allocation costs one thread-local load more
// than plain malloc.
#pragma once

#include <cstdint>

namespace tapo::perfbench {

struct AllocTally {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Tally that allocations on this thread are charged to (null = none).
extern thread_local AllocTally* t_alloc_tally;

}  // namespace tapo::perfbench
