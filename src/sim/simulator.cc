#include "sim/simulator.h"

#include <utility>

namespace blockplane::sim {

namespace {
/// Pre-sized backing storage: a busy deployment schedules thousands of
/// events before the queue's vectors would otherwise finish doubling.
constexpr size_t kInitialQueueCapacity = 4096;
}  // namespace

Simulator::Simulator(uint64_t seed) : rng_(seed) {
  std::vector<Key> storage;
  storage.reserve(kInitialQueueCapacity);
  queue_ = std::priority_queue<Key, std::vector<Key>, KeyLater>(
      KeyLater{}, std::move(storage));
  slots_.reserve(kInitialQueueCapacity);
  free_slots_.reserve(kInitialQueueCapacity);
}

EventId Simulator::Schedule(SimTime delay, EventFn fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(SimTime when, EventFn fn) {
  BP_CHECK(when >= now_);
  uint32_t slot = static_cast<uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    BP_CHECK(slots_.size() <= kSlotMask);
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  BP_CHECK(next_issue_ < (EventId{1} << (64 - kSlotBits)));
  const EventId id = (next_issue_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  slots_[slot].fn = std::move(fn);
  queue_.push(Key{when, id});
  ++pending_;
  return id;
}

void Simulator::Release(uint32_t slot) {
  slots_[slot].id = kInvalidEventId;
  free_slots_.push_back(slot);
  --pending_;
}

void Simulator::Cancel(EventId id) {
  // Live exactly when the id's slot still holds it: fired, cancelled,
  // never-issued and invalid ids all fail this test, including a stale id
  // whose slot has since been reused (the issue numbers differ).
  const uint64_t slot = id & kSlotMask;
  if (id == kInvalidEventId || slot >= slots_.size() ||
      slots_[slot].id != id) {
    return;
  }
  // Moved out before release, so a capture whose destructor schedules or
  // cancels events never sees a half-released slot.
  EventFn dropped = std::move(slots_[slot].fn);
  Release(static_cast<uint32_t>(slot));
  // The heap key stays queued and is skipped when it pops.
}

bool Simulator::SkipCancelled() {
  while (!queue_.empty() &&
         slots_[queue_.top().id & kSlotMask].id != queue_.top().id) {
    queue_.pop();
  }
  return !queue_.empty();
}

bool Simulator::Step() {
  if (!SkipCancelled()) return false;
  const Key key = queue_.top();
  queue_.pop();
  const uint32_t slot = static_cast<uint32_t>(key.id & kSlotMask);
  // Move the callback out before running it: it may schedule events,
  // which can reuse this slot or grow (and relocate) the slot vector.
  EventFn fn = std::move(slots_[slot].fn);
  Release(slot);
  BP_CHECK(key.when >= now_);
  now_ = key.when;
  ++processed_;
  fn();
  return true;
}

SimTime Simulator::Run() {
  while (Step()) {
  }
  return now_;
}

bool Simulator::RunUntil(SimTime deadline) {
  // The deadline test reads the earliest *live* event: a cancelled key at
  // the top must not let a later event run past the deadline.
  while (SkipCancelled() && queue_.top().when <= deadline) Step();
  if (now_ < deadline) now_ = deadline;
  return !SkipCancelled();
}

bool Simulator::RunUntilCondition(const std::function<bool()>& pred,
                                  SimTime deadline) {
  if (pred()) return true;
  while (SkipCancelled() && queue_.top().when <= deadline) {
    Step();
    if (pred()) return true;
  }
  return false;
}

}  // namespace blockplane::sim
