#include "net/chunk.h"

#include <utility>

namespace tapo::net {

TraceChunk::TraceChunk(std::size_t capacity_packets, util::MemoryBudget* budget)
    : budget_(budget) {
  trace_.reserve(capacity_packets);
  if (budget_ != nullptr) budget_->charge(bytes());
}

TraceChunk& TraceChunk::operator=(TraceChunk&& other) noexcept {
  if (this != &other) {
    release_budget();
    trace_ = std::move(other.trace_);
    budget_ = std::exchange(other.budget_, nullptr);
  }
  return *this;
}

void TraceChunk::release_budget() {
  if (budget_ != nullptr) budget_->release(bytes());
  budget_ = nullptr;
}

}  // namespace tapo::net
