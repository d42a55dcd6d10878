// Fixed-size trace chunks: the unit the streaming pcap reader hands out.
//
// A TraceChunk is a PacketTrace reserved to exactly its capacity plus a
// charge against a util::MemoryBudget. The reader (pcap::StreamingReader)
// fills one chunk in place — claim a slot, parse into it, pop_back() it if
// the frame is rejected — until it holds `capacity()` packets or the input
// ends, then hands it to the consumer. Each append claims at most one slot
// and a rollback only ever drops that slot, so it never reaches back into
// a chunk that was already delivered.
//
// Budget accounting is RAII: a chunk constructed against a
// util::MemoryBudget charges its capacity up front and releases it on
// destruction, wherever the chunk ends up — this is the "bytes in live
// chunks" half of the pipeline ledger (DESIGN.md §14).
#pragma once

#include <cstddef>
#include <span>
#include <utility>

#include "net/trace.h"
#include "util/memory_budget.h"

namespace tapo::net {

/// One fixed-capacity arena of packets. Move-only; the capacity is chosen
/// at construction and the producer must not append past it (full() tells
/// it to stop), so the charge always matches the arena.
class TraceChunk {
 public:
  TraceChunk() = default;
  explicit TraceChunk(std::size_t capacity_packets,
                      util::MemoryBudget* budget = nullptr);
  ~TraceChunk() { release_budget(); }
  TraceChunk(TraceChunk&& other) noexcept { *this = std::move(other); }
  TraceChunk& operator=(TraceChunk&& other) noexcept;
  TraceChunk(const TraceChunk&) = delete;
  TraceChunk& operator=(const TraceChunk&) = delete;

  /// The arena the producer appends into (at most capacity() packets).
  PacketTrace& trace() { return trace_; }

  std::span<const CapturedPacket> packets() const { return trace_.packets(); }
  const CapturedPacket& operator[](std::size_t i) const { return trace_[i]; }
  std::size_t size() const { return trace_.size(); }
  std::size_t capacity() const { return trace_.capacity(); }
  bool empty() const { return trace_.empty(); }
  bool full() const { return size() == capacity(); }
  /// Arena footprint in bytes (what the budget was charged).
  std::size_t bytes() const { return trace_.capacity_bytes(); }

 private:
  void release_budget();

  PacketTrace trace_;
  util::MemoryBudget* budget_ = nullptr;
};

}  // namespace tapo::net
