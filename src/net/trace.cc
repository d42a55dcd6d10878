#include "net/trace.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "net/ipv4.h"
#include "util/strings.h"

namespace tapo::net {

FlowKey FlowKey::canonical() const {
  const auto a = std::make_tuple(src_ip, src_port);
  const auto b = std::make_tuple(dst_ip, dst_port);
  return a <= b ? *this : reversed();
}

std::string FlowKey::to_string() const {
  return str_format("%s:%u -> %s:%u", ipv4_to_string(src_ip).c_str(), src_port,
                    ipv4_to_string(dst_ip).c_str(), dst_port);
}

std::size_t FlowKeyHash::operator()(const FlowKey& k) const {
  // FNV-1a over the tuple fields.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(k.src_ip);
  mix(k.dst_ip);
  mix(k.src_port);
  mix(k.dst_port);
  return static_cast<std::size_t>(h);
}

PacketTrace& PacketTrace::operator=(PacketTrace&& other) noexcept {
  slots_ = std::move(other.slots_);
  size_ = std::exchange(other.size_, 0);
  cap_ = std::exchange(other.cap_, 0);
  return *this;
}

CapturedPacket& PacketTrace::append() {
  if (size_ == cap_) relocate(grown_capacity(size_ + 1));
  slots_[size_] = CapturedPacket{};
  return slots_[size_++];
}

void PacketTrace::pop_back() {
  if (size_ > 0) --size_;
}

std::size_t PacketTrace::grown_capacity(std::size_t need) const {
  const std::size_t doubled = cap_ == 0 ? 64 : cap_ * 2;
  return doubled < need ? need : doubled;
}

void PacketTrace::relocate(std::size_t new_cap) {
  // Packets are relocated with a flat copy (they are trivially copyable by
  // static_assert).
  auto new_slots = std::make_unique<CapturedPacket[]>(new_cap);
  if (size_ > 0) std::copy_n(slots_.get(), size_, new_slots.get());
  slots_ = std::move(new_slots);
  cap_ = new_cap;
}

void PacketTrace::sort_by_time() {
  std::stable_sort(slots_.get(), slots_.get() + size_,
                   [](const CapturedPacket& a, const CapturedPacket& b) {
                     return a.timestamp < b.timestamp;
                   });
}

PacketTrace PacketTrace::clone() const {
  PacketTrace out;
  out.reserve(size_);
  if (size_ > 0) std::copy_n(slots_.get(), size_, out.slots_.get());
  out.size_ = size_;
  return out;
}

}  // namespace tapo::net
