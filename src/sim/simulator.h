// The discrete-event simulation core.
//
// A Simulator owns a virtual clock and an event queue. Everything in a
// Blockplane deployment — replicas, clients, daemons, the network — runs as
// callbacks scheduled on one Simulator, which makes every experiment
// single-threaded and deterministic for a given seed.
#ifndef BLOCKPLANE_SIM_SIMULATOR_H_
#define BLOCKPLANE_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/inline_fn.h"
#include "common/macros.h"
#include "sim/random.h"
#include "sim/sim_time.h"

namespace blockplane::sim {

/// The callable an event carries; 64 inline bytes hold `this` + a Message.
using EventFn = common::InlineFn<void, 64>;

/// Handle for a scheduled event; used to cancel timers. The low bits name
/// the callback slot the event occupies, the high bits its issue number,
/// which is unique per Simulator and never 0.
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1);
  BP_DISALLOW_COPY_AND_ASSIGN(Simulator);

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` from now. Delays clamp to >= 0.
  EventId Schedule(SimTime delay, EventFn fn);

  /// Schedules `fn` at an absolute virtual time (>= Now()).
  EventId ScheduleAt(SimTime when, EventFn fn);

  /// Cancels a pending event and destroys its callback. Cancelling an
  /// already-fired, already-cancelled, never-issued or invalid id is a
  /// strict no-op — also when the id's slot now holds a newer event — which
  /// keeps timer bookkeeping simple for callers.
  void Cancel(EventId id);

  /// Runs until the event queue drains. Returns the final virtual time.
  SimTime Run();

  /// Runs events with time <= deadline, then advances the clock to the
  /// deadline (never backwards). Returns true if no live event remains.
  bool RunUntil(SimTime deadline);

  /// Runs for `duration` of virtual time from now.
  bool RunFor(SimTime duration) { return RunUntil(now_ + duration); }

  /// Runs until `pred()` is true, the queue drains, or `deadline` passes.
  /// Returns true iff the predicate became true.
  bool RunUntilCondition(const std::function<bool()>& pred, SimTime deadline);

  /// Root RNG; fork per-component streams from it for isolation.
  Rng& rng() { return rng_; }

  uint64_t processed_events() const { return processed_; }
  /// Events scheduled, not yet fired, and not cancelled. Exact: a cancelled
  /// event leaves the count immediately, a fired one as it pops.
  size_t pending_events() const { return pending_; }

 private:
  /// Heap entry. Trivially copyable: the callback stays in its slot. The
  /// issue number in the id's high bits is the FIFO tie-break for equal
  /// timestamps, so (when, id) is a strict total order and the pop order
  /// does not depend on the heap implementation.
  struct Key {
    SimTime when;
    EventId id;
  };
  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };
  /// A callback slot. It holds an event exactly while `id` equals that
  /// event's id; a free slot holds kInvalidEventId. A heap key whose slot no
  /// longer holds it belongs to a cancelled event and is skipped.
  struct Slot {
    EventId id = kInvalidEventId;
    EventFn fn;
  };
  static constexpr int kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  /// Pops the keys of cancelled events off the top of the heap. Returns
  /// true when a live event is then at the top.
  bool SkipCancelled();
  /// Pops and runs one event. Returns false if no live event remains.
  bool Step();
  /// Returns a slot to the free list and drops its event from the count.
  void Release(uint32_t slot);

  SimTime now_ = 0;
  uint64_t next_issue_ = 1;
  uint64_t processed_ = 0;
  size_t pending_ = 0;
  std::priority_queue<Key, std::vector<Key>, KeyLater> queue_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  Rng rng_;
};

}  // namespace blockplane::sim

#endif  // BLOCKPLANE_SIM_SIMULATOR_H_
