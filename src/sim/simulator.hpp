// Discrete-event simulation kernel.
//
// Clockless (asynchronous) circuits are data-driven: every latch, arbiter
// and handshake control fires when its inputs change, after a circuit-
// specific delay. That maps directly onto a classic discrete-event kernel:
// components schedule callbacks at absolute picosecond timestamps, and the
// kernel dispatches them in (time, insertion-order) order so runs are
// fully deterministic.
//
// Event storage is a slab-allocated intrusive list behind a two-level
// calendar queue (see DESIGN.md):
//
//   * a near-horizon wheel of kWheelSize one-picosecond buckets, so a
//     bucket holds the events of exactly one timestamp, kept in
//     (birth, seq) order. Nearly every handshake delay in the model
//     (60 ps .. ~16 ns) lands within the wheel horizon, so insert is an
//     O(1) tail append and dispatch drains a whole bucket at a time;
//   * a min-heap overflow for events beyond the horizon (timeouts, traffic
//     interarrivals, warm-up deadlines). Overflow events migrate into the
//     wheel whenever now() advances far enough to bring them in range.
//
// One loop (drain()) serves run(), run_until(), run_window(),
// run_until_tie() and step(): it finds the next occupied bucket once,
// checks the bound and migrates due overflow events once per bucket, then
// pops and dispatches the bucket's events in order until it is empty.
// A zero-delay schedule made during dispatch carries the largest
// (birth, seq) key of the bucket being drained, so it appends at the tail
// and is drained by the same pass.
//
// Hot per-flit events travel as TypedEvent records — a one-byte opcode
// plus packed arguments filling the node's 64-byte capture area —
// dispatched through a single registered switch function, so the steady-
// state loop pays no indirect call, no capture construction and no
// destructor per event. Cold/control events keep the type-erased
// InlineFunction fallback (opcode 0). Event nodes are recycled through a
// free list carved from slabs — the steady-state loop performs no
// allocation at all.
//
// Dispatch order is (time, birth, insertion seq), where `birth` is the
// kernel clock at scheduling time. For events scheduled organically via
// at()/after() the birth of a later seq is never smaller at equal time
// (now() is nondecreasing), so the order is bit-identical to the classic
// (time, insertion seq) kernel (sim/legacy_kernel.hpp keeps that
// implementation for differential tests and benchmarks). The explicit
// birth component exists for the sharded engine (sim/parallel.hpp):
// boundary events handed across shards are admitted with the *sender's*
// scheduling time as their birth, so a merged multi-kernel run dispatches
// them exactly where the single-kernel run would have.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/assert.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace mango::sim {

/// POD record for a typed hot-path event: a small opcode plus packed
/// arguments, dispatched through one registered switch function instead
/// of a per-event type-erased callback. The payload holds a trivially
/// copyable argument blob (a Flit or LinkFlit in the NoC model) by
/// memcpy; p0/p1 carry receiver pointers and a/b/c/d small scalars. The
/// record is exactly the event node's capture area, so scheduling a
/// typed event is one 64-byte store with no indirect call, no capture
/// construction and no destructor on recycle.
struct TypedEvent {
  std::uint8_t op;  ///< nonzero opcode (0 is reserved for callbacks)
  std::uint8_t a;
  std::uint8_t b;
  std::uint8_t c;
  std::uint32_t d;
  void* p0;
  void* p1;
  unsigned char payload[40];
};
static_assert(sizeof(TypedEvent) == 64, "typed record fills the capture area");
static_assert(std::is_trivially_copyable_v<TypedEvent>,
              "typed records move by memcpy");

/// The event kernel. One instance drives one simulated network.
class Simulator {
 public:
  /// 5 words of inline capture: fits every remaining cold-path callback
  /// in the model (the largest captures a receiver pointer plus a
  /// 32-byte Flit); hot per-flit events travel as TypedEvent records.
  using Callback = InlineFunction<void(), 5>;

  /// The typed-event switch, registered once by the model layer. Takes
  /// the record by reference straight out of the event node.
  using TypedDispatcher = void (*)(TypedEvent&);

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  Time now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()).
  void at(Time t, Callback cb);

  /// Emplace overload: constructs the callback directly inside the event
  /// node — one capture construction instead of the three transfers
  /// (functor -> Callback -> parameter -> node) the type-erased overload
  /// performs.
  template <typename F,
            std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                    std::is_invocable_r_v<void, std::decay_t<F>&>,
                int> = 0>
  void at(Time t, F&& f) {
    check(t >= now_, "cannot schedule an event in the past");
    EventNode* n = alloc_node(t, now_);
    ::new (&n->body.cb) CallbackSlot(std::forward<F>(f));
    insert(n);
  }

  /// Schedules `cb` after `delay` picoseconds.
  void after(Time delay, Callback cb) { at(now_ + delay, std::move(cb)); }

  template <typename F,
            std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                    std::is_invocable_r_v<void, std::decay_t<F>&>,
                int> = 0>
  void after(Time delay, F&& f) {
    at(now_ + delay, std::forward<F>(f));
  }

  /// Admits an event with an explicit birth timestamp. Used by the shard
  /// engine to merge boundary events from other kernels: the event keeps
  /// the *sender's* scheduling time as its tie-break key, so it sorts
  /// against local events exactly as it would have in one shared kernel.
  /// Requires t >= now() and birth <= t.
  void admit(Time t, Time birth, Callback cb);

  /// Registers the typed-event switch. Idempotent: re-registering the
  /// same function is a no-op, a different one is a model error (the
  /// kernel supports exactly one dispatch table per process image).
  void set_typed_dispatcher(TypedDispatcher d) {
    MANGO_ASSERT(dispatcher_ == nullptr || dispatcher_ == d,
                 "conflicting typed-event dispatchers");
    dispatcher_ = d;
  }

  /// Schedules a typed record at absolute time `t` (must be >= now()).
  /// The record is copied into the node's capture area — one 64-byte
  /// store; dispatch order is identical to the callback overloads (the
  /// node draws the same (time, birth, seq) key either way).
  void at_typed(Time t, const TypedEvent& ev) {
    check(t >= now_, "cannot schedule an event in the past");
    check(ev.op != 0, "typed events need a nonzero opcode");
    EventNode* n = alloc_node(t, now_);
    ::new (&n->body.ev) TypedEvent(ev);
    insert(n);
  }

  /// Schedules a typed record after `delay` picoseconds.
  void after_typed(Time delay, const TypedEvent& ev) {
    at_typed(now_ + delay, ev);
  }

  /// Typed twin of admit(): explicit-birth merge of a boundary record.
  void admit_typed(Time t, Time birth, const TypedEvent& ev) {
    check(t >= now_, "cannot admit an event in the past");
    check(birth <= t, "admitted birth must not exceed the event time");
    check(ev.op != 0, "typed events need a nonzero opcode");
    EventNode* n = alloc_node(t, birth);
    ::new (&n->body.ev) TypedEvent(ev);
    insert(n);
  }

  /// Earliest pending (time, birth) key; (kTimeNever, 0) when idle.
  struct EventKey {
    Time time = kTimeNever;
    Time birth = 0;
  };
  EventKey next_event_key() const;

  /// Conservative-window run: dispatches every event strictly earlier
  /// than `end`, then parks now() at `end`. Events at exactly `end` stay
  /// pending so that boundary events admitted *at* a window edge can
  /// still be merged ahead of (or between) them by (time, birth, seq).
  /// Returns the number of events dispatched.
  std::uint64_t run_window(Time end) { return run_to(end, 0); }

  /// Dispatches every event with key (time, birth) lexicographically
  /// before (t, birth_bound), then parks now() at `t`. Used by the shard
  /// engine to align every shard on an exact control-event key before
  /// executing a control action. Returns events dispatched.
  std::uint64_t run_until_tie(Time t, Time birth_bound) {
    return run_to(t, birth_bound);
  }

  /// Dispatches the single next event. Returns false if none is pending.
  bool step() { return drain<true>(kTimeNever, kTimeNever) != 0; }

  /// Runs until the queue drains or the next event is later than `t_end`
  /// (events exactly at `t_end` are dispatched); leaves now() at `t_end`.
  /// Returns the number of events dispatched.
  std::uint64_t run_until(Time t_end) { return run_to(t_end, kTimeNever); }

  /// Runs until the event queue is empty. Returns events dispatched.
  std::uint64_t run() { return drain<false>(kTimeNever, kTimeNever); }

  /// True if no event is pending.
  bool idle() const { return wheel_count_ == 0 && overflow_.empty(); }

  /// Number of pending events.
  std::size_t pending() const { return wheel_count_ + overflow_.size(); }

  /// Time of the earliest pending event; kTimeNever when idle. A pure
  /// read: it never moves the clock or the wheel.
  Time next_event_time() const;

  /// Total events dispatched since construction. Includes handshake
  /// hops folded into coalesced transfer events (note_folded_hop_at)
  /// whose analytic time the clock has passed, so the figure measures
  /// model activity, not scheduler invocations, and totals are
  /// bit-identical to the unfolded chains — including runs cut off
  /// mid-chain by run_until().
  std::uint64_t events_dispatched() const {
    std::uint64_t n = dispatched_;
    for (const Time t : folds_) {
      if (t <= now_) ++n;
    }
    return n;
  }

  /// Declares a handshake hop that a coalesced transfer event will
  /// execute analytically at time `t` (the model layer folds fixed-delay
  /// event chains into one scheduled event). Amortized O(1): entries go
  /// into an unsorted ledger that is compacted against the clock when it
  /// grows — never a per-event heap operation.
  void note_folded_hop_at(Time t) {
    if (folds_.size() >= fold_compact_at_) compact_folds();
    folds_.push_back(t);
  }

 private:
  /// Fallback capture area: a type-erased callback behind the reserved
  /// opcode 0. Shares a common initial sequence (the leading opcode
  /// byte) with TypedEvent, so the kernel reads body.ev.op to tell which
  /// union member is live without a separate discriminant.
  struct CallbackSlot {
    std::uint8_t op = 0;  ///< always 0 while a callback is live
    Callback cb;

    CallbackSlot() = default;
    template <typename F>
    explicit CallbackSlot(F&& f) : cb(std::forward<F>(f)) {}
  };
  static_assert(sizeof(CallbackSlot) <= sizeof(TypedEvent),
                "the callback fallback must fit the typed capture area");

  struct EventNode {
    Time time = 0;
    Time birth = 0;         // now() at scheduling time (tie-break level 2)
    std::uint64_t seq = 0;  // FIFO tie-break for simultaneous events
    EventNode* next = nullptr;
    /// Backward link for the sorted insert (insert_sorted). Valid for
    /// every bucket member except the head, whose prev is never read.
    EventNode* prev = nullptr;
    /// 64-byte capture area. Either member may be live in a recycled
    /// node: a typed record (trivially destructible, left as it was
    /// dispatched) or an emptied callback slot. Scheduling constructs
    /// the new member in place over either — both leave nothing to
    /// destroy.
    union Body {
      CallbackSlot cb;  ///< live iff ev.op == 0
      TypedEvent ev;
      Body() : cb{} {}
      ~Body() {}  // EventNode destroys the live member
    } body;

    EventNode() = default;
    EventNode(const EventNode&) = delete;
    EventNode& operator=(const EventNode&) = delete;
    ~EventNode() {
      if (body.ev.op == 0) body.cb.~CallbackSlot();
    }
  };
  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;  ///< meaningful only while head != nullptr
  };
  /// Min-heap comparator for the overflow: true when `a` dispatches after
  /// `b`.
  struct HeapLater {
    bool operator()(const EventNode* a, const EventNode* b) const {
      if (a->time != b->time) return a->time > b->time;
      if (a->birth != b->birth) return a->birth > b->birth;
      return a->seq > b->seq;
    }
  };

  // One-picosecond buckets, tuned for thousand-node fabrics: a saturated
  // 32x32 run keeps several thousand events in flight at >7 events/ps,
  // and a bucket that covers one timestamp never needs a time compare —
  // a new event always carries the largest (birth, seq) among its
  // time-equals unless an explicit birth says otherwise. The 16.4-ns
  // horizon still covers every handshake delay; longer schedules ride
  // the overflow heap. The sparse-workload flip side — a lone GS stream
  // dispatches one event every few hundred buckets — is paid off by a
  // two-level occupancy bitmap (occ_/occ_l1_): finding the next
  // non-empty bucket is a handful of word scans.
  static constexpr unsigned kWheelBits = 14;  // 16384 buckets, ~16.4 ns
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;
  static constexpr std::size_t kOccWords = kWheelSize / 64;
  static constexpr std::size_t kOccL1Words = kOccWords / 64;
  static constexpr std::size_t kSlabNodes = 256;

  /// Throws ModelError("invariant violated: <what>") unless `ok`. The
  /// throw sits out of line so the inline schedule paths stay small
  /// enough to inline and need no stack frame.
  static void check(bool ok, const char* what) {
    if (__builtin_expect(!ok, 0)) fail(what);
  }
  [[noreturn]] static void fail(const char* what);

  /// Draws a node off the free list and stamps its dispatch key.
  EventNode* alloc_node(Time t, Time birth) {
    EventNode* n = free_list_;
    if (n == nullptr) n = grow_slab();
    free_list_ = n->next;
    n->time = t;
    n->birth = birth;
    n->seq = next_seq_++;
    return n;
  }
  /// Carves a new slab onto the free list; returns its first node.
  EventNode* grow_slab();

  /// Links a keyed node into the wheel (within the horizon) or the
  /// overflow heap.
  void insert(EventNode* n) {
    if (n->time - now_ >= kWheelSize) {
      push_overflow(n);
      return;
    }
    insert_wheel(n);
  }
  void insert_wheel(EventNode* n) {
    const std::size_t idx = n->time & kWheelMask;
    Bucket& b = wheel_[idx];
    ++wheel_count_;
    n->next = nullptr;
    if (b.head == nullptr) {
      b.head = b.tail = n;
      mark_occupied(idx);
    } else if (b.tail->birth <= n->birth) {
      // n has the largest seq, so a birth no earlier than the tail's
      // puts it last: every organic schedule lands here.
      n->prev = b.tail;
      b.tail->next = n;
      b.tail = n;
    } else {
      insert_sorted(b, n);
    }
  }
  /// Mid-bucket insert for an explicit (admitted) birth earlier than the
  /// bucket tail's.
  void insert_sorted(Bucket& b, EventNode* n);
  void push_overflow(EventNode* n);

  /// Occupancy-bitmap maintenance: a bit is set iff its bucket has a
  /// head whenever control is outside drain().
  void mark_occupied(std::size_t idx) {
    occ_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    occ_l1_[idx >> 12] |= std::uint64_t{1} << ((idx >> 6) & 63);
  }
  void mark_empty(std::size_t idx) {
    if ((occ_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63))) == 0) {
      occ_l1_[idx >> 12] &= ~(std::uint64_t{1} << ((idx >> 6) & 63));
    }
  }
  /// Index of the first occupied bucket at or circularly after `idx`.
  /// Requires wheel_count_ > 0. O(1): one partial word, at most a
  /// 63-word linear run to the next level-1 span boundary, then
  /// level-1 jumps.
  std::size_t next_occupied(std::size_t idx) const;
  /// Time of the earliest wheel event (requires wheel_count_ > 0). The
  /// wheel holds only times in [now, now + kWheelSize), so the first
  /// occupied bucket circularly from now()'s is the minimum.
  Time next_wheel_time() const {
    const std::size_t i = now_ & kWheelMask;
    return now_ + ((next_occupied(i) - i) & kWheelMask);
  }
  /// Moves every overflow event now inside the wheel horizon into the
  /// wheel. Called whenever now() advances; with now() standing still no
  /// overflow event can fall due, so between advances the overflow top
  /// is later than every wheel event.
  void migrate_overflow() {
    while (!overflow_.empty() &&
           overflow_.front()->time - now_ < kWheelSize) {
      migrate_one();
    }
  }
  void migrate_one();

  /// The dispatch loop. Dispatches, in (time, birth, seq) order, every
  /// event with time < t or with time == t and birth < birth_bound —
  /// only the first one when kStep. Returns the number dispatched.
  template <bool kStep>
  std::uint64_t drain(Time t, Time birth_bound);
  /// drain() to the bound (t, birth_bound), then parks now() at t.
  std::uint64_t run_to(Time t, Time birth_bound);

  // Slab storage: nodes are carved in blocks and recycled via free_list_;
  // nothing is returned to the system until destruction.
  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  EventNode* free_list_ = nullptr;

  /// Bucket i holds the events at the one time in [now, now + kWheelSize)
  /// congruent to i — the wheel cursor is now() itself.
  Bucket wheel_[kWheelSize] = {};
  /// Two-level bucket-occupancy bitmap: occ_ has one bit per bucket,
  /// occ_l1_ one bit per 64-bucket span of occ_.
  std::uint64_t occ_[kOccWords] = {};
  std::uint64_t occ_l1_[kOccL1Words] = {};
  std::size_t wheel_count_ = 0;

  static constexpr std::size_t kFoldCompactLimit = 4096;

  /// Retires ledger entries the clock has passed into dispatched_. The
  /// next compaction threshold doubles off the surviving size, so a
  /// workload holding many not-yet-passed folds in flight scans the
  /// ledger amortized O(1) per note instead of on every call.
  void compact_folds() {
    std::size_t w = 0;
    for (const Time t : folds_) {
      if (t > now_) {
        folds_[w++] = t;
      } else {
        ++dispatched_;
      }
    }
    folds_.resize(w);
    fold_compact_at_ = std::max(kFoldCompactLimit, 2 * w);
  }

  /// Beyond-horizon events: min-heap on the full dispatch key
  /// (time, birth, seq) — see HeapLater.
  std::vector<EventNode*> overflow_;
  /// Unsorted ledger of declared folded-hop times not yet retired.
  std::vector<Time> folds_;
  std::size_t fold_compact_at_ = kFoldCompactLimit;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  TypedDispatcher dispatcher_ = nullptr;
};

}  // namespace mango::sim
