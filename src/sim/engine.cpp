#include "sim/engine.hpp"

#include <algorithm>

namespace cosched::sim {

// ---------------------------------------------------------------------------
// CalendarQueue

void Engine::CalendarQueue::push(const Entry& e) {
  if (buckets_.empty()) {
    buckets_.resize(kInitialBuckets);
    mask_ = kInitialBuckets - 1;
  }
  const std::uint64_t b = bucket_of(e.time);
  if (size_ == 0 || b < cursor_) {
    // Empty queue anchors the window here. A non-empty queue can still see
    // b < cursor_: run_until() parks the cursor on the next pending bucket,
    // which may lie past `now`, and a later schedule lands between the two.
    // Re-anchoring is safe — entries the old window filed into revisited
    // cells are evicted to the shelf when prepare() reaches them.
    cursor_ = b;
    heaped_ = false;
  }
  ++size_;
  if (b >= cursor_ + buckets_.size()) {
    overflow_.push_back(e);
    overflow_min_ = std::min(overflow_min_, e.time);
    return;
  }
  std::vector<Entry>& cell = buckets_[b & mask_];
  cell.push_back(e);
  if (b == cursor_ && heaped_) {
    std::push_heap(cell.begin(), cell.end());
  }
  ++ring_size_;
}

const Engine::Entry& Engine::CalendarQueue::top() {
  prepare();
  return buckets_[cursor_ & mask_].front();
}

void Engine::CalendarQueue::pop() {
  prepare();
  std::vector<Entry>& cell = buckets_[cursor_ & mask_];
  std::pop_heap(cell.begin(), cell.end());
  cell.pop_back();
  --ring_size_;
  --size_;
}

void Engine::CalendarQueue::prepare() {
  COSCHED_CHECK(size_ > 0);
  for (;;) {
    if (ring_size_ == 0) {
      rotate();
    } else if (!overflow_.empty() && bucket_of(overflow_min_) <= cursor_) {
      // The cursor caught up with the shelf: entries parked there while
      // their buckets lay beyond the window must re-enter the ring before
      // this bucket pops, or they would fire late (or after a same-time
      // ring entry with a smaller key).
      merge_shelf();
    }
    std::vector<Entry>& cell = buckets_[cursor_ & mask_];
    if (cell.empty()) {
      ++cursor_;
      heaped_ = false;
      continue;
    }
    if (heaped_) return;
    // Evict entries that hash to this cell but belong to a different
    // window lap (bucket number = cursor_ +/- k * ring size); they reach
    // the shelf and come back when geometry rotates to their time.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < cell.size(); ++i) {
      if (bucket_of(cell[i].time) == cursor_) {
        cell[kept++] = cell[i];
      } else {
        overflow_.push_back(cell[i]);
        overflow_min_ = std::min(overflow_min_, cell[i].time);
        --ring_size_;
      }
    }
    cell.resize(kept);
    if (cell.empty()) {
      ++cursor_;
      continue;
    }
    std::make_heap(cell.begin(), cell.end());
    heaped_ = true;
    return;
  }
}

void Engine::CalendarQueue::rotate() {
  COSCHED_CHECK(!overflow_.empty());
  SimTime min_t = overflow_.front().time;
  SimTime max_t = min_t;
  for (const Entry& e : overflow_) {
    min_t = std::min(min_t, e.time);
    max_t = std::max(max_t, e.time);
  }
  // Bucket count scales with the deferred population; width targets a few
  // entries per bucket across the observed span. Both only ever change
  // here, with the ring empty, so no filed entry's bucket number goes
  // stale.
  std::size_t want = buckets_.size();
  while (want < overflow_.size() / 4 && want < kMaxBuckets) want <<= 1;
  if (want != buckets_.size()) {
    buckets_.assign(want, {});
    mask_ = want - 1;
  }
  const auto span = static_cast<std::uint64_t>(max_t - min_t);
  width_ = std::max<SimDuration>(
      1, static_cast<SimDuration>(2 * span / (overflow_.size() + 1)));
  cursor_ = bucket_of(min_t);
  heaped_ = false;
  // Refile shelf entries inside the new window; later ones wait for the
  // next rotation. At least the min-time entries always land in the ring,
  // so every rotation makes progress.
  std::size_t kept = 0;
  overflow_min_ = kTimeInfinity;
  for (std::size_t i = 0; i < overflow_.size(); ++i) {
    const std::uint64_t b = bucket_of(overflow_[i].time);
    if (b < cursor_ + buckets_.size()) {
      buckets_[b & mask_].push_back(overflow_[i]);
      ++ring_size_;
    } else {
      overflow_min_ = std::min(overflow_min_, overflow_[i].time);
      overflow_[kept++] = overflow_[i];
    }
  }
  overflow_.resize(kept);
}

std::size_t Engine::CalendarQueue::purge(
    util::FunctionRef<bool(const Entry&)> live) {
  // Filter a cell in place; when the survivors occupy under a quarter of a
  // grown allocation, reallocate tight so the freed tombstone pages go back
  // to the allocator (this is where reschedule churn parks its memory).
  const auto filter = [&live](std::vector<Entry>& cell) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < cell.size(); ++i) {
      if (live(cell[i])) cell[kept++] = cell[i];
    }
    const std::size_t removed = cell.size() - kept;
    cell.resize(kept);
    if (cell.capacity() > 64 && kept < cell.capacity() / 4) {
      cell.shrink_to_fit();
    }
    return removed;
  };
  std::size_t ring_removed = 0;
  for (std::vector<Entry>& cell : buckets_) ring_removed += filter(cell);
  std::size_t shelf_removed = filter(overflow_);
  overflow_min_ = kTimeInfinity;
  for (const Entry& e : overflow_) {
    overflow_min_ = std::min(overflow_min_, e.time);
  }
  ring_size_ -= ring_removed;
  size_ -= ring_removed + shelf_removed;
  // The cursor bucket may have lost entries mid-heap; prepare() re-heaps.
  heaped_ = false;
  return ring_removed + shelf_removed;
}

void Engine::CalendarQueue::merge_shelf() {
  std::size_t kept = 0;
  overflow_min_ = kTimeInfinity;
  for (std::size_t i = 0; i < overflow_.size(); ++i) {
    const std::uint64_t b = bucket_of(overflow_[i].time);
    COSCHED_CHECK(b >= cursor_);  // nothing is ever parked behind the cursor
    if (b < cursor_ + buckets_.size()) {
      buckets_[b & mask_].push_back(overflow_[i]);
      ++ring_size_;
    } else {
      overflow_min_ = std::min(overflow_min_, overflow_[i].time);
      overflow_[kept++] = overflow_[i];
    }
  }
  overflow_.resize(kept);
  // Entries may have joined the cursor bucket out of heap order.
  heaped_ = false;
}

// ---------------------------------------------------------------------------
// Engine

Engine::~Engine() {
  // Destroy payloads of events that never ran (simulation ended early).
  const auto destroy_pending = [this](const Entry& entry) {
    if (!is_live(entry.id)) return;
    Slot& s = slot(entry.slot);
    s.destroy(s);
    slot_of_id_[entry.id - 1 - id_floor_] = kNoSlot;
  };
  calendar_.for_each(destroy_pending);
}

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
                           const char* label, std::uint32_t slot_idx) {
  compact_id_table();
  const EventId id = next_id_++;
  slot_of_id_.push_back(slot_idx);
  calendar_.push(Entry{when, priority, id, slot_idx, label});
  ++live_events_;
  return id;
}

bool Engine::cancel(EventId id) {
  if (id == kInvalidEvent || id >= next_id_) return false;
  if (id <= id_floor_) return false;  // compacted away: long since dead
  const std::uint32_t idx = slot_of_id_[id - 1 - id_floor_];
  if (idx == kNoSlot) return false;  // already executed or cancelled
  Slot& s = slot(idx);
  s.destroy(s);
  release_slot(idx);
  slot_of_id_[id - 1 - id_floor_] = kNoSlot;
  --live_events_;
  ++dead_queued_;  // the queue entry outlives the payload until popped/purged
  maybe_purge();
  return true;
}

void Engine::maybe_purge() {
  // Reschedule-heavy workloads cancel far-future events by the million;
  // left in place their entries dominate the queue (memory and scan cost)
  // until sim time reaches them. Sweep once tombstones outnumber live
  // events: each sweep deletes >= half of all queued entries, so the cost
  // amortizes to O(1) per cancel. The floor keeps small runs sweep-free.
  static constexpr std::size_t kMinPurge = 4096;
  if (dead_queued_ < kMinPurge || dead_queued_ <= live_events_) return;
  const std::size_t removed =
      calendar_.purge([this](const Entry& e) { return is_live(e.id); });
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
  while (!calendar_.empty()) {
    const Entry& e = calendar_.top();
    if (is_live(e.id)) return &e;
    calendar_.pop();  // skip tombstoned (cancelled) entries
    --dead_queued_;
  }
  return nullptr;
}

bool Engine::step() {
  const Entry* top = peek();
  if (top == nullptr) return false;
  const Entry entry = *top;
  calendar_.pop();
  COSCHED_CHECK(entry.time >= now_);
  now_ = entry.time;
  slot_of_id_[entry.id - 1 - id_floor_] = kNoSlot;
  --live_events_;
  ++executed_;
  Slot& s = slot(entry.slot);
  s.invoke(s);  // may schedule new events; chunks never move
  s.destroy(s);
  // Recycled only after the callback ran, so a mid-invoke schedule can
  // never alias the executing payload's slot.
  release_slot(entry.slot);
  for (EventObserver* observer : observers_) {
    observer->on_event_executed(entry.time, entry.priority, entry.id,
                                entry.label);
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
