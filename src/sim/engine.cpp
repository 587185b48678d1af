#include "sim/engine.hpp"

#include <algorithm>

namespace cosched::sim {

std::uint32_t Engine::acquire_slot() {
  if (free_slots_.empty()) {
    const auto base =
        static_cast<std::uint32_t>(chunks_.size() * kSlotsPerChunk);
    chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
    free_slots_.reserve(kSlotsPerChunk);
    // Reversed so the lowest-numbered slot is handed out first.
    for (std::uint32_t i = kSlotsPerChunk; i-- > 0;) {
      free_slots_.push_back(base + i);
    }
  }
  const std::uint32_t idx = free_slots_.back();
  free_slots_.pop_back();
  return idx;
}

void Engine::release_slot(std::uint32_t idx) { free_slots_.push_back(idx); }

void Engine::compact_id_table() {
  // The prefix pointer is monotone, so the scan below costs O(1) amortized
  // per event over the run even though a single call may walk far.
  while (dead_prefix_ < slot_of_id_.size() &&
         slot_of_id_[dead_prefix_] == kNoSlot) {
    ++dead_prefix_;
  }
  // Erase only once the dead prefix dominates the table: the tail move is
  // then no larger than the prefix dropped, keeping compaction amortized
  // O(1) per id, and the floor guards small runs from churn.
  static constexpr std::size_t kMinCompact = 4096;
  if (dead_prefix_ >= kMinCompact && 2 * dead_prefix_ >= slot_of_id_.size()) {
    slot_of_id_.erase(slot_of_id_.begin(),
                      slot_of_id_.begin() +
                          static_cast<std::ptrdiff_t>(dead_prefix_));
    id_floor_ += dead_prefix_;
    dead_prefix_ = 0;
  }
}

EventId Engine::push_event(SimTime when, EventPriority priority,
                           std::uint32_t slot_idx) {
  compact_id_table();
  const EventId id = next_id_++;
  slot_of_id_.push_back(slot_idx);
  heap_.push_back(Entry{when, id, slot_idx, priority});
  std::push_heap(heap_.begin(), heap_.end());
  ++live_events_;
  return id;
}

bool Engine::cancel(EventId id) {
  if (id == kInvalidEvent || id >= next_id_) return false;
  if (id <= id_floor_) return false;  // compacted away: long since dead
  const std::uint32_t idx = slot_of_id_[id - 1 - id_floor_];
  if (idx == kNoSlot) return false;  // already executed or cancelled
  release_slot(idx);
  slot_of_id_[id - 1 - id_floor_] = kNoSlot;
  --live_events_;
  ++dead_queued_;  // the heap entry outlives the payload until popped/purged
  maybe_purge();
  return true;
}

void Engine::maybe_purge() {
  // Reschedule-heavy workloads cancel far-future events by the million;
  // left in place their entries dominate the heap (memory and sift cost)
  // until sim time reaches them. Sweep once tombstones outnumber live
  // events: each sweep deletes >= half of the heap, so the cost amortizes
  // to O(1) per cancel. The floor keeps small runs sweep-free.
  static constexpr std::size_t kMinPurge = 4096;
  if (dead_queued_ < kMinPurge || dead_queued_ <= live_events_) return;
  const std::size_t removed = std::erase_if(
      heap_, [this](const Entry& e) { return !is_live(e.id); });
  std::make_heap(heap_.begin(), heap_.end());
  COSCHED_CHECK(removed == dead_queued_);
  purged_total_ += removed;
  dead_queued_ = 0;
}

void Engine::add_observer(EventObserver* observer) {
  COSCHED_CHECK(observer != nullptr);
  COSCHED_CHECK(std::find(observers_.begin(), observers_.end(), observer) ==
                observers_.end());
  observers_.push_back(observer);
}

void Engine::remove_observer(EventObserver* observer) {
  const auto it = std::find(observers_.begin(), observers_.end(), observer);
  COSCHED_CHECK_MSG(it != observers_.end(), "observer was never registered");
  observers_.erase(it);
}

const Engine::Entry* Engine::peek() {
  while (!heap_.empty()) {
    const Entry& e = heap_.front();
    if (is_live(e.id)) return &e;
    pop_top();  // skip tombstoned (cancelled) entries
    --dead_queued_;
  }
  return nullptr;
}

void Engine::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end());
  heap_.pop_back();
}

bool Engine::step() {
  const Entry* top = peek();
  if (top == nullptr) return false;
  const Entry entry = *top;
  pop_top();
  COSCHED_CHECK(entry.time >= now_);
  now_ = entry.time;
  slot_of_id_[entry.id - 1 - id_floor_] = kNoSlot;
  --live_events_;
  ++executed_;
  Slot& s = slot(entry.slot);
  const char* const label = s.label;
  s.invoke(s);  // may schedule new events; chunks never move
  // Recycled only after the callback ran, so a mid-invoke schedule can
  // never alias the executing payload's slot.
  release_slot(entry.slot);
  for (EventObserver* observer : observers_) {
    observer->on_event_executed(entry.time, entry.priority, entry.id, label);
  }
  return true;
}

std::size_t Engine::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Engine::run_until(SimTime until) {
  COSCHED_CHECK(until >= now_);
  std::size_t n = 0;
  for (;;) {
    const Entry* top = peek();
    if (top == nullptr || top->time > until) break;
    if (step()) ++n;
  }
  now_ = until;
  return n;
}

}  // namespace cosched::sim
