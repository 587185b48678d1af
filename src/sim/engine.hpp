// Discrete-event simulation engine.
//
// The engine owns a priority queue of (time, priority, sequence) ordered
// events whose payload is a callback. Ordering is total and deterministic:
// ties on time break on priority (lower runs first), then on insertion
// sequence, so two runs with the same inputs replay identically.
//
// Priorities let the batch-system controller enforce the canonical ordering
// at one instant: job completions release resources before the scheduler
// pass that wants to use them, and submissions enqueue before that pass.
//
// The pending events sit in one binary heap (a std::vector driven by
// std::push_heap/std::pop_heap) ordered by the full (time, priority, id)
// key, so it pops in exactly that total order; tests/engine_queue_test.cpp
// fuzzes it against a std::map keyed by the same triple.
//
// Event payloads live in a slab pool, not behind per-event heap
// allocations. A payload is a trivially copyable callable of at most 40
// bytes (a `this` pointer and a few ids, as every controller event
// captures); it is copied into a recycled 64-byte slot (chunked arrays
// with stable addresses) and never destroyed, and a payload outside that
// contract does not compile. Heap entries are 24-byte trivially-copyable
// structs that reference slots by index. Cancellation is O(1): a dense
// id -> slot table marks dead events, whose tombstoned heap entries are
// discarded when popped — and, so that cancel-heavy workloads (every job
// that completes cancels its walltime kill, typically hours in the future)
// don't pile dead entries into the heap until sim time reaches them, the
// heap is purged whenever tombstones outnumber live events. The purge only
// deletes entries already dead and re-heaps; the pop sequence of live
// events is untouched (a heap pops by full key regardless of its internal
// layout), so it is invisible to every decision. The table is *windowed*:
// ids die roughly in issue order (an event either fires or is cancelled
// within its scheduling horizon), so a monotone dead prefix is compacted
// away and the table holds only the span from the oldest live id to the
// newest — O(in-flight window), not O(events ever scheduled) — which is
// what lets a million-job streaming run hold flat memory. EventId stays
// the plain insertion counter — it is hashed by the determinism audit and
// written into traces, so no pool, heap, or compaction detail may leak
// into it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace cosched::sim {

/// Event ordering priority at equal timestamps. Lower value runs first.
enum class EventPriority : std::int8_t {
  kJobEnd = 0,     // release resources first
  kSubmit = 1,     // then accept new work
  kTimer = 2,      // periodic machinery (walltime enforcement)
  kSchedule = 3,   // scheduler passes see a settled state
  kReport = 4,     // observers run last
};

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Observes the executed event stream. Observers are notified after each
/// event's callback returns, with the event's metadata; the audit layer
/// uses this seam for invariant validation and determinism hashing, and
/// the obs layer mirrors it into decision traces.
///
/// `label` is the event-kind string the schedule site attached. It
/// identifies what the event *was* without inferring from priority; it
/// must never enter determinism digests — only (when, priority, id) are
/// hashed.
class EventObserver {
 public:
  virtual ~EventObserver() = default;
  virtual void on_event_executed(SimTime when, EventPriority priority,
                                 EventId id, const char* label) = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time. Starts at 0.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= now). `label` names
  /// the event kind for observers ("submit", "job_end", ...); it must be a
  /// string with static storage duration — the pointer is kept, not copied.
  /// `fn` is copied into the event's slot as is: it must be trivially
  /// copyable and fit the slot's inline storage.
  template <typename Fn>
    requires std::is_invocable_r_v<void, Fn&>
  EventId schedule_at(SimTime when, EventPriority priority, const char* label,
                      Fn fn) {
    static_assert(std::is_trivially_copyable_v<Fn> &&
                      sizeof(Fn) <= kInlinePayload &&
                      alignof(Fn) <= alignof(std::max_align_t),
                  "an event payload must be trivially copyable and fit "
                  "Engine::kInlinePayload bytes");
    COSCHED_CHECK_MSG(when >= now_, "event scheduled in the past: "
                                        << when << " < " << now_);
    COSCHED_CHECK(label != nullptr);
    if constexpr (std::is_constructible_v<bool, const Fn&>) {
      COSCHED_CHECK(static_cast<bool>(fn));  // null function pointer
    }
    const std::uint32_t slot_idx = acquire_slot();
    Slot& s = slot(slot_idx);
    ::new (static_cast<void*>(s.storage)) Fn(fn);
    s.invoke = [](Slot& sl) {
      (*std::launder(reinterpret_cast<Fn*>(sl.storage)))();
    };
    s.label = label;
    return push_event(when, priority, slot_idx);
  }

  /// Cancels a pending event. Returns false if the event already ran,
  /// was cancelled before, or never existed. O(1) amortized: the payload
  /// slot is recycled immediately; the heap entry is tombstoned and skipped
  /// when popped, and once tombstones outnumber live events a sweep deletes
  /// them from the heap (see maybe_purge).
  bool cancel(EventId id);

  /// Runs until the queue drains. Returns the number of events executed.
  std::size_t run();

  /// Runs events with time <= `until`; the clock ends at `until` even if
  /// the queue drained earlier. Returns the number of events executed.
  std::size_t run_until(SimTime until);

  /// Executes exactly one event if available. Returns false on empty queue.
  bool step();

  bool empty() const { return live_events_ == 0; }
  std::size_t pending() const { return live_events_; }
  std::size_t executed() const { return executed_; }

  /// Current width of the id -> slot window (test/diagnostic seam): the
  /// span from the oldest uncompacted id to the newest issued one. Stays
  /// O(in-flight events) on retiring workloads even as ids grow without
  /// bound.
  std::size_t id_table_entries() const { return slot_of_id_.size(); }

  /// Cumulative queue entries deleted by purge sweeps (test/diagnostic
  /// seam; never feeds decisions).
  std::uint64_t purged_total() const { return purged_total_; }

  /// Registers an observer notified after every executed event, in
  /// registration order. The observer must outlive the engine or be
  /// removed first; adding the same observer twice is an error.
  void add_observer(EventObserver* observer);
  void remove_observer(EventObserver* observer);

 private:
  /// Inline payload capacity: fits the controller's capture lambdas (a
  /// `this` pointer plus a couple of ids; node_fail's, the largest, is 24
  /// bytes) and leaves a Slot one 64-byte line.
  static constexpr std::size_t kInlinePayload = 40;
  static constexpr std::size_t kSlotsPerChunk = 256;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// A pooled payload cell. Chunks never move, so a Slot& stays valid
  /// across pool growth (callbacks may schedule new events mid-invoke).
  struct Slot {
    alignas(std::max_align_t) std::byte storage[kInlinePayload];
    void (*invoke)(Slot&) = nullptr;
    const char* label = "";  // event-kind string (static storage)
  };
  static_assert(sizeof(Slot) == 64);

  /// Trivially-copyable heap entry; the payload and label stay in its slot.
  struct Entry {
    SimTime time;
    EventId id;  // doubles as insertion sequence for tie-breaking
    std::uint32_t slot;
    EventPriority priority;
    // Ordering for heap algorithms (max-heap): invert so the smallest
    // (time, priority, id) triple is on top.
    bool operator<(const Entry& other) const {
      if (time != other.time) return time > other.time;
      if (priority != other.priority) return priority > other.priority;
      return id > other.id;
    }
  };
  static_assert(sizeof(Entry) == 24);

  Slot& slot(std::uint32_t idx) {
    return chunks_[idx / kSlotsPerChunk][idx % kSlotsPerChunk];
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  EventId push_event(SimTime when, EventPriority priority,
                     std::uint32_t slot_idx);
  /// Next live entry, discarding tombstones; nullptr when drained. The
  /// pointer is valid until the next heap mutation.
  const Entry* peek();
  void pop_top();
  /// Live events only: cancelled/executed ids map to kNoSlot; ids at or
  /// below the compaction floor are dead by construction.
  bool is_live(EventId id) const {
    return id > id_floor_ && slot_of_id_[id - 1 - id_floor_] != kNoSlot;
  }
  /// Advances the dead prefix over retired ids and, once it dominates the
  /// table, erases it (amortized O(1) per event over a run).
  void compact_id_table();
  /// Deletes tombstoned entries from the heap once they outnumber live
  /// events. Amortized O(1) per cancel: a sweep over the heap removes at
  /// least half of its entries, paid for by the cancels that created them.
  /// Pure function of already-dead state — no decision, no EventId, and no
  /// pop order changes.
  void maybe_purge();

  /// Pending entries, live and tombstoned, as a std::push_heap max-heap
  /// under Entry::operator< (smallest key on top).
  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  /// slot_of_id_[id - 1 - id_floor_] is the payload slot of event `id`, or
  /// kNoSlot once it executed or was cancelled. Ids are dense (1, 2, 3,
  /// ...) and die roughly in issue order, so a flat vector doubles as the
  /// cancellation set and its dead prefix is periodically compacted away:
  /// ids <= id_floor_ are all retired and no longer tabled.
  std::vector<std::uint32_t> slot_of_id_;
  EventId id_floor_ = 0;        // ids <= id_floor_ are dead and untabled
  std::size_t dead_prefix_ = 0; // leading kNoSlot entries already verified

  SimTime now_ = 0;
  EventId next_id_ = 1;
  std::size_t live_events_ = 0;
  std::size_t executed_ = 0;
  std::size_t dead_queued_ = 0;    // tombstoned entries still in heap_
  std::uint64_t purged_total_ = 0; // entries deleted by purge sweeps
  std::vector<EventObserver*> observers_;
};

}  // namespace cosched::sim
