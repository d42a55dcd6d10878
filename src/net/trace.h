// Packet-trace representation shared by the simulator, the pcap codec and
// the TAPO analyzer.
//
// A CapturedPacket is one TCP/IPv4 packet observed at the capture point (the
// server NIC in this reproduction, matching the paper's tcpdump vantage
// point). The analyzer never cares about payload bytes, only lengths and
// header fields, so payloads are represented by their length alone; the pcap
// writer synthesizes zero payload bytes of the right size.
//
// Memory layout: CapturedPacket is a trivially copyable POD (no heap
// pointers — SACK blocks are inline in the TcpHeader), and a PacketTrace is
// a contiguous arena of them. It is the only container packets are written
// into: the simulator's capture point, the pcap readers (whole-file and,
// through net::TraceChunk, chunk by chunk) and the live flow table all
// append to one. Producers claim a slot with append(), fill it in place and
// pop_back() it when the frame turns out not to be a TCP packet. Growth
// relocates with a flat copy, consumers read through std::span views, and
// whole traces move between pipeline stages (simulator -> analyzer -> sink)
// by pointer swap, never by copying packets. View lifetime rule: spans and
// references into the arena stay valid until the next mutating call
// (append/add/pop_back/reserve/sort_by_time).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "net/tcp_header.h"
#include "util/time.h"

namespace tapo::net {

/// Connection 4-tuple. Oriented: src is the packet sender.
struct FlowKey {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  /// The same key with the two endpoints swapped (reply direction).
  FlowKey reversed() const { return {dst_ip, src_ip, dst_port, src_port}; }

  /// Direction-insensitive canonical form (smaller endpoint first) so both
  /// directions of a connection map to the same table entry.
  FlowKey canonical() const;

  bool operator==(const FlowKey&) const = default;
  std::string to_string() const;
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const;
};

struct CapturedPacket {
  TimePoint timestamp;
  FlowKey key;
  TcpHeader tcp;
  std::uint32_t payload_len = 0;
  /// Snaplen truncation cut into this packet's TCP options: tail options
  /// (SACK blocks, timestamps) may be missing even though the lengths above
  /// reflect the full wire packet. Set by the pcap reader for records with
  /// caplen < wire len and by sim::CaptureChannel's snaplen impairment; the
  /// analyzer counts it into the flow's CaptureQuality.
  bool truncated = false;

  Seq32 end_seq() const {
    // SYN and FIN each consume one sequence number.
    return tcp.seq + (payload_len + (tcp.flags.syn ? 1u : 0u) +
                      (tcp.flags.fin ? 1u : 0u));
  }
};
static_assert(std::is_trivially_copyable_v<CapturedPacket>,
              "CapturedPacket must stay a POD so PacketTrace can keep its "
              "packets in a flat arena and relocate them with memcpy");

/// An ordered (by capture time) sequence of packets, stored in one
/// contiguous arena. Move-only: whole traces are handed between pipeline
/// stages by pointer swap; use clone() for the rare deliberate deep copy.
class PacketTrace {
 public:
  PacketTrace() = default;
  /// Moves leave the source empty (size and capacity 0), not stale.
  PacketTrace(PacketTrace&& other) noexcept { *this = std::move(other); }
  PacketTrace& operator=(PacketTrace&& other) noexcept;
  PacketTrace(const PacketTrace&) = delete;
  PacketTrace& operator=(const PacketTrace&) = delete;

  /// Appends a default-initialized slot and returns it for in-place
  /// filling — the zero-copy write path used by the simulator capture
  /// point and the pcap reader.
  CapturedPacket& append();

  void add(const CapturedPacket& pkt) { append() = pkt; }
  /// Grows the arena to exactly `n` slots (no-op if it already holds that
  /// many); appends then fill it without relocating until it is full.
  void reserve(std::size_t n) {
    if (n > cap_) relocate(n);
  }
  /// Drops the most recently appended packet (a producer's rollback of a
  /// slot whose frame was rejected).
  void pop_back();

  /// Stable view of the whole arena; valid until the next mutating call.
  std::span<const CapturedPacket> packets() const { return {slots_.get(), size_}; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const CapturedPacket& operator[](std::size_t i) const { return slots_[i]; }

  /// Slots in the arena (appends beyond it relocate).
  std::size_t capacity() const { return cap_; }
  /// Arena footprint in bytes (capacity, not just size).
  std::size_t capacity_bytes() const { return cap_ * sizeof(CapturedPacket); }
  /// Arena footprint after one more append(), without allocating — lets a
  /// memory ledger charge the growth before it happens.
  std::size_t capacity_bytes_after_append() const {
    return (size_ == cap_ ? grown_capacity(size_ + 1) : cap_) *
           sizeof(CapturedPacket);
  }

  /// Stable-sorts by timestamp (pcap files are usually already ordered, but
  /// multi-interface captures may interleave slightly out of order).
  /// Permutes the arena in place: spans stay addressable but now show the
  /// sorted order, so sort before handing packets to an analyzer.
  void sort_by_time();

  /// Deliberate deep copy of the arena.
  PacketTrace clone() const;

 private:
  /// The growth policy: 64 slots first, then doubling (at least `need`).
  std::size_t grown_capacity(std::size_t need) const;
  /// Moves the packets into a fresh arena of exactly `new_cap` slots.
  void relocate(std::size_t new_cap);

  std::unique_ptr<CapturedPacket[]> slots_;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace tapo::net
