#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "telemetry/telemetry.h"

namespace tapo::sim {

namespace {

/// Batched event accounting: one registry add per run()/run_until() call,
/// never per event, so the event loop's hot path is untouched.
void count_executed(std::size_t executed) {
  if (executed == 0 || !telemetry::metrics_enabled()) return;
  static auto& events =
      telemetry::Registry::instance().counter("tapo_sim_events_total");
  events.add(executed);
}

/// Heap order: earliest time first; FIFO among equal times.
constexpr auto kLater = [](const auto& a, const auto& b) {
  // tapo-lint: allow(seq-compare) — the schedule counter, not a TCP seq
  return a.when != b.when ? a.when > b.when : a.seq > b.seq;
};

}  // namespace

void Simulator::schedule_at(TimePoint when, EventFn fn) {
  const std::uint32_t slot = take_slot();
  slots_[slot].fn = std::move(fn);
  push(when, slot);
}

std::uint32_t Simulator::take_slot() {
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void Simulator::push(TimePoint when, std::uint32_t slot) {
  if (when < now_) when = now_;
  slots_[slot].seq = next_seq_;
  heap_.push_back(Event{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
}

/// Superseded entries: their timer was re-armed, cancelled or destroyed.
bool Simulator::prune() {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].seq != heap_.front().seq) {
    std::pop_heap(heap_.begin(), heap_.end(), kLater);
    heap_.pop_back();
  }
  return !heap_.empty();
}

std::size_t Simulator::loop(TimePoint deadline, std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && prune() && heap_.front().when <= deadline) {
    const Event ev = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), kLater);
    heap_.pop_back();
    now_ = ev.when;
    Slot& slot = slots_[ev.slot];
    slot.seq = 0;
    if (Timer* timer = slot.timer) {
      timer->on_fire_();
    } else {
      // Free the slot first: the callback may schedule into it.
      EventFn fn = std::move(slot.fn);
      free_slots_.push_back(ev.slot);
      fn();
    }
    ++executed;
  }
  count_executed(executed);
  return executed;
}

std::size_t Simulator::run_until(TimePoint deadline, std::size_t max_events) {
  const std::size_t executed = loop(deadline, max_events);
  const auto next = next_event_time();
  if (!(next && *next <= deadline) && now_ < deadline) now_ = deadline;
  return executed;
}

std::optional<TimePoint> Simulator::next_event_time() {
  return prune() ? std::optional(heap_.front().when) : std::nullopt;
}

Timer::Timer(Simulator& sim, EventFn on_fire)
    : sim_(sim), on_fire_(std::move(on_fire)), slot_(sim_.take_slot()) {
  sim_.slots_[slot_].timer = this;
}

Timer::~Timer() {
  // Seqs never repeat: queued expiries stay dead when the slot is reused.
  sim_.slots_[slot_] = {};
  sim_.free_slots_.push_back(slot_);
}

void Timer::arm(Duration delay) {
  deadline_ = sim_.now() + delay;
  sim_.push(deadline_, slot_);
}

}  // namespace tapo::sim
