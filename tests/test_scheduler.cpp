// Calendar-queue scheduler coverage: ordering semantics the NoC model
// depends on, wheel/overflow mechanics, and a randomized differential
// check against the reference priority-queue kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/legacy_kernel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mango::sim {
namespace {

// The wheel spans 16384 one-picosecond buckets, so events past ~16.4 ns
// of now() take the overflow path. Not exported: the values are an
// implementation detail, the tests only need "definitely beyond the
// horizon".
constexpr Time kBeyondHorizon = 8 * 1000 * 1000;  // 8 us

TEST(Scheduler, SameTimestampDispatchesInInsertionOrderAcrossBuckets) {
  Simulator sim;
  std::vector<int> order;
  // Interleave three timestamps so insertions hit the same bucket list
  // non-monotonically: 700 and 900 share bucket 1, 100 sits in bucket 0.
  sim.at(900, [&] { order.push_back(3); });
  sim.at(100, [&] { order.push_back(1); });
  sim.at(700, [&] { order.push_back(2); });
  sim.at(900, [&] { order.push_back(4); });  // same time, later insertion
  sim.at(700, [&] { order.push_back(5); });  // sorted insert mid-bucket
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5, 3, 4}));
}

TEST(Scheduler, OverflowEventsDispatchAfterWheelEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.at(kBeyondHorizon, [&] { order.push_back(2); });  // overflow path
  sim.at(500, [&] { order.push_back(1); });             // wheel path
  sim.at(2 * kBeyondHorizon, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 2 * kBeyondHorizon);
}

TEST(Scheduler, OverflowTieBreaksBySeqAfterMigration) {
  Simulator sim;
  std::vector<int> order;
  // All beyond the horizon at the same timestamp: the overflow heap must
  // preserve insertion order when they migrate into one bucket.
  for (int i = 0; i < 8; ++i) {
    sim.at(kBeyondHorizon, [&order, i] { order.push_back(i); });
  }
  // Advance the clock to just below the ties and anchor a wheel event so
  // the ties actually take the migration path (with an empty wheel the
  // kernel pops the overflow heap directly, which would not cover it).
  sim.run_until(kBeyondHorizon - 1000);
  sim.after(50, [&order] { order.push_back(-1); });
  sim.run();
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order[0], -1);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i) + 1], i);
}

TEST(Scheduler, AdmittedOverflowTiesDispatchByBirthThenSeq) {
  // admit() carries an explicit birth; beyond the horizon the events land
  // in the overflow heap, which must order by the full (time, birth, seq)
  // key — not raw insertion order. Births are deliberately inserted
  // out of order, with one same-birth pair left to the seq tie-break.
  Simulator sim;
  std::vector<int> order;
  sim.admit(kBeyondHorizon, 700, [&] { order.push_back(3); });
  sim.admit(kBeyondHorizon, 100, [&] { order.push_back(1); });
  sim.admit(kBeyondHorizon, 700, [&] { order.push_back(4); });  // seq tie
  sim.admit(kBeyondHorizon, 300, [&] { order.push_back(2); });
  // An earlier timestamp beats every later-time event regardless of its
  // birth being the largest of the batch.
  sim.admit(kBeyondHorizon - 512, 900, [&] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

  // Same shape through the migration path: advance the clock so the
  // granule enters the wheel window and the ties migrate into one bucket
  // (with an empty wheel the kernel pops the heap directly; the anchor
  // event forces the migration).
  Simulator sim2;
  order.clear();
  sim2.admit(kBeyondHorizon, 500, [&] { order.push_back(2); });
  sim2.admit(kBeyondHorizon, 200, [&] { order.push_back(1); });
  sim2.run_until(kBeyondHorizon - 1000);
  sim2.after(50, [&] { order.push_back(0); });
  sim2.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Scheduler, OverflowEventEarlierThanLaterWheelInsertStillWins) {
  // Regression shape: an overflow event whose granule enters the wheel
  // window only after the cursor advances must still dispatch before a
  // *later* event that was inserted directly into the wheel.
  Simulator sim;
  std::vector<int> order;
  sim.at(10, [&] {
    // From t=10 the horizon ends around ~2.1 us, so 5 us is overflow.
    sim.at(5 * 1000 * 1000, [&] { order.push_back(2); });
    // Walk the cursor forward with a chain of near events until the
    // 5 us granule is inside the window, then insert a later wheel event.
    sim.at(4 * 1000 * 1000, [&] {
      sim.at(5 * 1000 * 1000 + 100, [&] { order.push_back(3); });
      order.push_back(1);
    });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, RunUntilBoundaryWithOverflowEvents) {
  Simulator sim;
  int fired = 0;
  sim.at(100, [&] { ++fired; });
  sim.at(kBeyondHorizon, [&] { ++fired; });
  sim.at(kBeyondHorizon + 1, [&] { ++fired; });
  // Stop between the wheel event and the overflow events.
  EXPECT_EQ(sim.run_until(kBeyondHorizon - 1), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), kBeyondHorizon - 1);
  // Boundary inclusive: exactly at the overflow event's time.
  EXPECT_EQ(sim.run_until(kBeyondHorizon), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, SchedulingAfterIdleRunUntilReanchorsTheWheel) {
  Simulator sim;
  int fired = 0;
  sim.at(100, [&] { ++fired; });
  sim.run();
  // Advance the clock far past the (stale) wheel cursor, then schedule
  // near events again: they must land and dispatch normally.
  sim.run_until(100 * kBeyondHorizon);
  EXPECT_EQ(sim.now(), 100 * kBeyondHorizon);
  sim.after(500, [&] { ++fired; });
  sim.after(200, [&] { ++fired; });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 100 * kBeyondHorizon + 500);
}

TEST(Scheduler, WheelRolloverManyRotations) {
  // A periodic event crosses the wheel seam (granule wrap) thousands of
  // times; each dispatch must see monotonically advancing time.
  Simulator sim;
  std::uint64_t count = 0;
  Time last = 0;
  bool monotonic = true;
  constexpr std::uint64_t kTicks = 20000;
  // 1300 ps period: co-prime-ish with the 512 ps bucket so the event
  // lands at varying bucket offsets.
  struct Tick {
    Simulator* sim;
    std::uint64_t* count;
    Time* last;
    bool* monotonic;
    void operator()() const {
      if (sim->now() < *last) *monotonic = false;
      *last = sim->now();
      if (++*count < kTicks) sim->after(1300, *this);
    }
  };
  sim.after(1300, Tick{&sim, &count, &last, &monotonic});
  sim.run();
  EXPECT_EQ(count, kTicks);
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.now(), 1300 * kTicks);
}

TEST(Scheduler, InsertBelowFastForwardedCursorStillDispatchesInOrder) {
  // run_until declines an event after peeking at it; a subsequent insert
  // below the declined event must still dispatch first.
  Simulator sim;
  std::vector<int> order;
  sim.at(100, [&] { order.push_back(1); });
  sim.at(1 * 1000 * 1000, [&] { order.push_back(3); });  // same wheel window
  EXPECT_EQ(sim.run_until(500), 1u);  // dispatches t=100, peeks at t=1e6
  sim.at(600, [&] { order.push_back(2); });  // granule below the cursor
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 1 * 1000 * 1000u);
}

TEST(Scheduler, FarInsertUnderFastForwardedCursorDoesNotLapEarly) {
  // Regression from the kernel whose peeks moved a wheel cursor ahead of
  // now(): run_until() declines the first event, then an insert beyond
  // now()'s wheel horizon (but within the declined event's) and a near
  // insert follow. The far event must not alias into an earlier bucket
  // and dispatch a wheel lap early (dragging now() backwards).
  Simulator sim;
  std::vector<int> order;
  sim.at(51200, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run_until(10), 0u);  // declines the event at 51200
  sim.at(2107392, [&] { order.push_back(3); });  // beyond now()+horizon
  sim.at(5120, [&] { order.push_back(1); });     // below the declined one
  std::vector<Time> times;
  while (sim.step()) times.push_back(sim.now());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<Time>{5120, 51200, 2107392}));
}

TEST(Scheduler, OverflowMigrationAfterCursorFastForward) {
  // An overflow event older than every later wheel insert, with a
  // next_event_time() peek interposed before every step.
  Simulator sim;
  std::vector<int> order;
  sim.at(10, [&] {
    sim.at(5 * 1000 * 1000, [&] { order.push_back(2); });  // overflow
    sim.at(4 * 1000 * 1000, [&] {
      sim.at(5 * 1000 * 1000 + 100, [&] { order.push_back(3); });  // wheel
      order.push_back(1);
    });
  });
  // Drain up to just past t=4e6, peeking before each step.
  while (sim.next_event_time() <= 4 * 1000 * 1000) sim.step();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, NextEventTimeSeesBothWheelAndOverflow) {
  Simulator sim;
  EXPECT_EQ(sim.next_event_time(), kTimeNever);
  sim.at(kBeyondHorizon, [] {});
  EXPECT_EQ(sim.next_event_time(), kBeyondHorizon);
  sim.at(300, [] {});
  EXPECT_EQ(sim.next_event_time(), 300u);
  sim.step();
  EXPECT_EQ(sim.next_event_time(), kBeyondHorizon);
}

TEST(Scheduler, LargeCaptureSpillsToHeapAndStillRuns) {
  Simulator sim;
  struct Big {
    std::uint64_t words[32] = {};
  };
  static_assert(!Simulator::Callback::stores_inline<Big>());
  Big big;
  big.words[31] = 42;
  std::uint64_t seen = 0;
  sim.at(10, [big, &seen] { seen = big.words[31]; });
  sim.run();
  EXPECT_EQ(seen, 42u);
}

TEST(InlineFunctionTest, InlineCapturesDoNotAllocate) {
  struct Small {
    void* a;
    void* b;
    void* c;
    void operator()() const {}
  };
  static_assert(InlineCallback::stores_inline<Small>());
  static_assert(Simulator::Callback::stores_inline<Small>());
}

TEST(InlineFunctionTest, MoveTransfersTargetAndEmptiesSource) {
  int hits = 0;
  InlineCallback a = [&hits] { ++hits; };
  InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunctionTest, MoveOnlyCapturesWork) {
  auto p = std::make_unique<int>(7);
  InlineFunction<int()> f = [p = std::move(p)] { return *p; };
  EXPECT_EQ(f(), 7);
}

/// Randomized differential test: the calendar-queue kernel and the
/// reference priority-queue kernel must produce bit-identical dispatch
/// sequences — (time, event id) — for identical workloads mixing
/// handshake-scale delays, far timeouts and same-time ties.
template <typename Kernel>
std::vector<std::pair<Time, std::uint64_t>> run_storm(std::uint64_t seed) {
  Kernel sim;
  Rng rng(seed);
  std::vector<std::pair<Time, std::uint64_t>> trace;
  std::uint64_t next_id = 0;
  std::uint64_t budget = 20000;

  struct Ctl {
    Kernel* sim;
    Rng* rng;
    std::vector<std::pair<Time, std::uint64_t>>* trace;
    std::uint64_t* next_id;
    std::uint64_t* budget;
  } ctl{&sim, &rng, &trace, &next_id, &budget};

  struct Node {
    Ctl* c;
    std::uint64_t id;
    void operator()() const {
      c->trace->emplace_back(c->sim->now(), id);
      if (*c->budget == 0) return;
      // 0-2 follow-ups with mixed horizons, sometimes zero delay.
      const std::uint64_t kids = c->rng->next_below(3);
      for (std::uint64_t k = 0; k < kids && *c->budget > 0; ++k) {
        --*c->budget;
        const std::uint64_t kind = c->rng->next_below(10);
        Time d = 0;
        if (kind == 0) {
          d = 0;  // same-timestamp tie
        } else if (kind == 1) {
          d = 3 * 1000 * 1000 + c->rng->next_below(20 * 1000 * 1000);
        } else {
          d = 60 + c->rng->next_below(2500);
        }
        c->sim->after(d, Node{c, (*c->next_id)++});
      }
    }
  };

  for (int i = 0; i < 32; ++i) {
    sim.after(rng.next_below(1000), Node{&ctl, next_id++});
  }
  // Drive through randomized run_until() boundaries instead of one run(),
  // peeking next_event_time() and scheduling fresh events from *outside*
  // any callback between segments — states that pure run()-driven storms
  // never enter. The delay mix lies far beyond the ~16.4-ns wheel
  // horizon as well as inside it.
  while (!sim.idle()) {
    sim.run_until(sim.now() + 1 + rng.next_below(6 * 1000 * 1000));
    (void)sim.next_event_time();
    const std::uint64_t extra = rng.next_below(3);
    for (std::uint64_t k = 0; k < extra && budget > 0; ++k) {
      --budget;
      const std::uint64_t kind = rng.next_below(4);
      Time d = 0;
      if (kind == 0) {
        d = rng.next_below(2500);  // near
      } else if (kind == 1) {
        // Beyond the wheel horizon, short of the far timeouts.
        d = 2 * 1000 * 1000 + rng.next_below(400 * 1000);
      } else {
        d = 3 * 1000 * 1000 + rng.next_below(20 * 1000 * 1000);  // far
      }
      sim.after(d, Node{&ctl, next_id++});
    }
  }
  return trace;
}

/// Test-only typed twin of LegacySimulator: the same priority-queue
/// reference semantics, extended to the kernel surface the NoC model
/// uses — (time, birth, seq) keys with explicit births, typed records
/// through a registered dispatcher, half-open windows, tie cuts, peeks
/// and the folded-hop ledger. Every operation is the obvious one-event-
/// at-a-time definition.
class TypedLegacySimulator {
 public:
  using Callback = std::function<void()>;

  Time now() const { return now_; }
  void set_typed_dispatcher(Simulator::TypedDispatcher d) { dispatcher_ = d; }

  void at(Time t, Callback cb) { push(t, now_, std::move(cb), nullptr); }
  void after(Time d, Callback cb) { at(now_ + d, std::move(cb)); }
  void at_typed(Time t, const TypedEvent& ev) { push(t, now_, {}, &ev); }
  void after_typed(Time d, const TypedEvent& ev) { at_typed(now_ + d, ev); }
  void admit_typed(Time t, Time birth, const TypedEvent& ev) {
    push(t, birth, {}, &ev);
  }
  void note_folded_hop_at(Time t) { folds_.push_back(t); }

  std::uint64_t events_dispatched() const {
    std::uint64_t n = dispatched_;
    for (const Time t : folds_) n += t <= now_ ? 1 : 0;
    return n;
  }
  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  Time next_event_time() const {
    return queue_.empty() ? kTimeNever : queue_.top().time;
  }
  Simulator::EventKey next_event_key() const {
    if (queue_.empty()) return {};
    return {queue_.top().time, queue_.top().birth};
  }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ++dispatched_;
    if (ev.typed) {
      dispatcher_(ev.rec);
    } else {
      ev.cb();
    }
    return true;
  }
  std::uint64_t run_until(Time t) {
    return run_while(t, [&](const Event& e) { return e.time <= t; });
  }
  std::uint64_t run_window(Time end) {
    return run_while(end, [&](const Event& e) { return e.time < end; });
  }
  std::uint64_t run_until_tie(Time t, Time birth) {
    return run_while(t, [&](const Event& e) {
      return e.time < t || (e.time == t && e.birth < birth);
    });
  }
  std::uint64_t run() {
    std::uint64_t n = 0;
    while (step()) ++n;
    return n;
  }

 private:
  struct Event {
    Time time;
    Time birth;
    std::uint64_t seq;
    bool typed;
    Callback cb;
    TypedEvent rec;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.birth != b.birth) return a.birth > b.birth;
      return a.seq > b.seq;
    }
  };

  void push(Time t, Time birth, Callback cb, const TypedEvent* rec) {
    Event e{t, birth, next_seq_++, rec != nullptr, std::move(cb), {}};
    if (rec != nullptr) e.rec = *rec;
    queue_.push(std::move(e));
  }
  template <typename Pred>
  std::uint64_t run_while(Time park, Pred before) {
    std::uint64_t n = 0;
    while (!queue_.empty() && before(queue_.top())) {
      step();
      ++n;
    }
    if (now_ < park) now_ = park;
    return n;
  }

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Time> folds_;
  Simulator::TypedDispatcher dispatcher_ = nullptr;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

/// Randomized storm on the path the model uses: typed records mixed
/// with callbacks, the model's handshake delay mix plus zero-delay and
/// horizon-straddling schedules, admitted records with explicit births,
/// folded hops, and every kind of cut — run_until / run_window /
/// run_until_tie landing exactly on an occupied bucket's timestamp, and
/// single steps — with peeks between cuts. The trace holds every
/// dispatch (time, id) and, at every cut, the clock, pending count,
/// events_dispatched() and both peeks.
template <typename Kernel>
class TypedStorm {
 public:
  explicit TypedStorm(std::uint64_t seed) : rng_(seed) {
    sim_.set_typed_dispatcher(&TypedStorm::on_typed);
  }

  std::vector<std::uint64_t> run() {
    for (int i = 0; i < 48; ++i) schedule_from_outside();
    while (!sim_.idle()) {
      cut();
      const Simulator::EventKey k = sim_.next_event_key();
      for (const std::uint64_t v :
           {std::uint64_t{0xC07}, sim_.now(),
            static_cast<std::uint64_t>(sim_.pending()),
            sim_.events_dispatched(), sim_.next_event_time(), k.time,
            k.birth}) {
        trace_.push_back(v);
      }
      const std::uint64_t extra = rng_.next_below(3);
      for (std::uint64_t i = 0; i < extra && budget_ > 0; ++i) {
        --budget_;
        schedule_from_outside();
      }
    }
    trace_.push_back(sim_.events_dispatched());
    return trace_;
  }

 private:
  static void on_typed(TypedEvent& ev) {
    std::uint64_t id = 0;
    std::memcpy(&id, ev.payload, sizeof id);
    static_cast<TypedStorm*>(ev.p0)->fire(id);
  }

  void fire(std::uint64_t id) {
    trace_.push_back(sim_.now());
    trace_.push_back(id);
    const std::uint64_t kids = rng_.next_below(3);
    for (std::uint64_t k = 0; k < kids && budget_ > 0; ++k) {
      --budget_;
      schedule(sim_.now() + delay(), sim_.now(), false);
    }
    if (rng_.next_below(4) == 0) {
      sim_.note_folded_hop_at(sim_.now() + delay());
    }
  }

  /// The model's handshake delays (60..1942 ps) with zero-delay
  /// schedules, the ~16.4-ns wheel horizon edge and far timeouts mixed in.
  Time delay() {
    switch (rng_.next_below(10)) {
      case 0: return 0;
      case 1: return 15000 + rng_.next_below(3000);
      case 2: return 20000 + rng_.next_below(400000);
      default: return 60 + rng_.next_below(1883);
    }
  }

  /// One event: typed (at_typed, or admit_typed with an explicit birth
  /// when `admitted`) or a callback; ids keep the dispatch trace readable.
  void schedule(Time t, Time birth, bool admitted) {
    const std::uint64_t id = next_id_++;
    if (rng_.next_below(5) == 0) {
      sim_.at(t, [this, id] { fire(id); });
      return;
    }
    TypedEvent ev{};
    ev.op = 1;
    ev.p0 = this;
    std::memcpy(ev.payload, &id, sizeof id);
    if (admitted) {
      sim_.admit_typed(t, birth, ev);
    } else {
      sim_.at_typed(t, ev);
    }
  }

  void schedule_from_outside() {
    const Time now = sim_.now();
    const Time t = now + delay();
    if (rng_.next_below(3) == 0) {
      // A boundary record: born before now() on the sender, or (as the
      // unit tests allow) anywhere up to its own time.
      const Time birth = rng_.next_below(2) == 0
                             ? now - std::min<Time>(now, rng_.next_below(3000))
                             : now + rng_.next_below(t - now + 1);
      schedule(t, birth, true);
    } else {
      schedule(t, now, false);
    }
    if (rng_.next_below(4) == 0) sim_.note_folded_hop_at(now + delay());
  }

  void cut() {
    const Simulator::EventKey k = sim_.next_event_key();
    switch (rng_.next_below(7)) {
      case 0: sim_.run_until(sim_.now() + 1 + rng_.next_below(40000)); break;
      case 1: sim_.run_window(sim_.now() + 1 + rng_.next_below(40000)); break;
      case 2: sim_.run_until(k.time); break;   // lands on an occupied bucket
      case 3: sim_.run_window(k.time); break;  // stops short of it
      case 4:  // stops at the exact key, or just past its birth
        sim_.run_until_tie(k.time, k.birth + rng_.next_below(2));
        break;
      case 5:
        sim_.run_until_tie(sim_.now() + rng_.next_below(3000),
                           rng_.next_below(sim_.now() + 3000));
        break;
      default:
        for (std::uint64_t i = rng_.next_below(4); i > 0; --i) sim_.step();
        break;
    }
  }

  Kernel sim_;
  Rng rng_;
  std::vector<std::uint64_t> trace_;
  std::uint64_t next_id_ = 0;
  std::uint64_t budget_ = 30000;
};

TEST(SchedulerDifferential, BitIdenticalDispatchVsLegacyKernel) {
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    const auto a = run_storm<Simulator>(seed);
    const auto b = run_storm<LegacySimulator>(seed);
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "divergence at event " << i << ", seed "
                            << seed;
    }
  }
  // The typed path with explicit births, folds and exact cuts.
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull, 7ull, 99ull}) {
    const auto a = TypedStorm<Simulator>(seed).run();
    const auto b = TypedStorm<TypedLegacySimulator>(seed).run();
    EXPECT_GT(a.size(), 50000u) << "storm too thin, seed " << seed;
    const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    ASSERT_TRUE(ia == a.end() && ib == b.end())
        << "typed storm diverged at trace word " << (ia - a.begin()) << " of "
        << a.size() << "/" << b.size() << ", seed " << seed;
  }
}

}  // namespace
}  // namespace mango::sim
