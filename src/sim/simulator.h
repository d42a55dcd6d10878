// Discrete-event simulation core.
//
// A single-threaded event loop with microsecond virtual time. One binary
// heap orders every pending event by (when, seq); `seq` counts schedules
// and timer arms, so same-instant events fire in scheduling order (FIFO)
// and runs are deterministic. Each entry names a slot holding its callback
// (or its Timer) and the seq of the slot's live entry. A Timer keeps one
// slot, so the RTO re-arm on every ACK is one heap push; an entry whose
// seq no longer matches its slot's is dropped at the head, never executed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/time.h"

namespace tapo::sim {

using EventFn = std::function<void()>;

class Timer;

class Simulator {
 public:
  TimePoint now() const { return now_; }

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to now.
  void schedule(Duration delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  void schedule_at(TimePoint when, EventFn fn);

  /// Runs until the queue drains or `limit` events have fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX) {
    return loop(TimePoint::max(), limit);
  }

  /// Runs events with timestamp <= deadline, at most `max_events` of them,
  /// then advances virtual time to the deadline. Returns the number run. If
  /// the budget trips (runnable work is still due by the deadline) virtual
  /// time stays at the last event and the caller decides whether that is
  /// divergence; event order never depends on the budget.
  std::size_t run_until(TimePoint deadline,
                        std::size_t max_events = SIZE_MAX);

  /// Earliest pending time, if any; drops superseded entries off the head.
  std::optional<TimePoint> next_event_time();
  bool empty() { return !next_event_time(); }

 private:
  friend class Timer;
  // Trivially copyable, so heap sifts move 24 bytes and no callable.
  struct Event {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    EventFn fn;              // a plain event's callback
    Timer* timer = nullptr;  // or the timer this slot belongs to
    std::uint64_t seq = 0;   // the live entry's seq; 0 when none
  };

  std::uint32_t take_slot();
  void push(TimePoint when, std::uint32_t slot);
  /// Pops superseded entries off the head; false once nothing is queued.
  bool prune();
  /// The one event loop behind run() and run_until().
  std::size_t loop(TimePoint deadline, std::size_t max_events);

  TimePoint now_ = TimePoint::epoch();
  std::uint64_t next_seq_ = 1;
  std::vector<Event> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

/// A self-rearming timer bound to one Simulator, which it must not outlive.
/// At most one expiry is pending: arm() reschedules, destruction cancels.
class Timer {
 public:
  Timer(Simulator& sim, EventFn on_fire);
  ~Timer();
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void arm(Duration delay);
  void cancel() { sim_.slots_[slot_].seq = 0; }
  bool armed() const { return sim_.slots_[slot_].seq != 0; }
  TimePoint deadline() const { return deadline_; }

 private:
  friend class Simulator;
  Simulator& sim_;
  EventFn on_fire_;
  std::uint32_t slot_;
  TimePoint deadline_;
};

}  // namespace tapo::sim
