#include "sim/simulator.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

namespace mango::sim {

void Simulator::fail(const char* what) {
  model_fail(std::string("invariant violated: ") + what);
}

Simulator::EventNode* Simulator::grow_slab() {
  slabs_.push_back(std::make_unique<EventNode[]>(kSlabNodes));
  EventNode* block = slabs_.back().get();
  for (std::size_t i = 0; i < kSlabNodes; ++i) {
    block[i].next = free_list_;
    free_list_ = &block[i];
  }
  return free_list_;
}

void Simulator::at(Time t, Callback cb) {
  check(t >= now_, "cannot schedule an event in the past");
  check(static_cast<bool>(cb), "cannot schedule an empty callback");
  EventNode* n = alloc_node(t, now_);
  ::new (&n->body.cb) CallbackSlot(std::move(cb));
  insert(n);
}

void Simulator::admit(Time t, Time birth, Callback cb) {
  check(t >= now_, "cannot admit an event in the past");
  check(birth <= t, "admitted birth must not exceed the event time");
  check(static_cast<bool>(cb), "cannot admit an empty callback");
  EventNode* n = alloc_node(t, birth);
  ::new (&n->body.cb) CallbackSlot(std::move(cb));
  insert(n);
}

void Simulator::insert_sorted(Bucket& b, EventNode* n) {
  // n sorts before the tail. Search BACKWARD from the tail: the displaced
  // suffix is only the events born after n, never the same-timestamp
  // train at the front of the bucket, which on a 1k-node fabric with
  // phase-aligned CBR sources can be thousands of events long.
  EventNode* q = b.tail;  // invariant: n sorts before q
  while (q != b.head && q->prev->birth > n->birth) q = q->prev;
  n->next = q;
  if (q == b.head) {
    b.head = n;
  } else {
    n->prev = q->prev;
    q->prev->next = n;
  }
  q->prev = n;
}

void Simulator::push_overflow(EventNode* n) {
  overflow_.push_back(n);
  std::push_heap(overflow_.begin(), overflow_.end(), HeapLater{});
}

void Simulator::migrate_one() {
  // The heap pops in (time, birth, seq) order, and a bucket receives
  // migrants before any direct insert can reach its time, so migrants
  // take insert_wheel's append path.
  std::pop_heap(overflow_.begin(), overflow_.end(), HeapLater{});
  EventNode* n = overflow_.back();
  overflow_.pop_back();
  insert_wheel(n);
}

std::size_t Simulator::next_occupied(std::size_t idx) const {
  // Tail of the word containing idx (its own bit included).
  const std::uint64_t first = occ_[idx >> 6] >> (idx & 63);
  if (first != 0) {
    return idx + static_cast<std::size_t>(__builtin_ctzll(first));
  }
  // Linear word scan to the next level-1 span boundary, then jump
  // span-to-span through occ_l1_. Terminates because wheel_count_ > 0
  // implies some occ_l1_ word is non-zero.
  std::size_t w = idx >> 6;
  for (;;) {
    w = (w + 1) & (kOccWords - 1);
    if ((w & 63) == 0) {
      std::size_t span = w >> 6;
      while (occ_l1_[span] == 0) span = (span + 1) & (kOccL1Words - 1);
      w = (span << 6) +
          static_cast<std::size_t>(__builtin_ctzll(occ_l1_[span]));
      return (w << 6) + static_cast<std::size_t>(__builtin_ctzll(occ_[w]));
    }
    if (occ_[w] != 0) {
      return (w << 6) + static_cast<std::size_t>(__builtin_ctzll(occ_[w]));
    }
  }
}

Time Simulator::next_event_time() const {
  // Every overflow event is later than every wheel event (see
  // migrate_overflow), so the overflow top matters only on an empty wheel.
  if (wheel_count_ != 0) return next_wheel_time();
  return overflow_.empty() ? kTimeNever : overflow_.front()->time;
}

Simulator::EventKey Simulator::next_event_key() const {
  if (wheel_count_ != 0) {
    const Time t = next_wheel_time();
    return EventKey{t, wheel_[t & kWheelMask].head->birth};
  }
  if (overflow_.empty()) return EventKey{};
  return EventKey{overflow_.front()->time, overflow_.front()->birth};
}

template <bool kStep>
std::uint64_t Simulator::drain(Time t, Time birth_bound) {
  std::uint64_t count = 0;
  for (;;) {
    Time bt;
    if (wheel_count_ != 0) {
      bt = next_wheel_time();
    } else if (!overflow_.empty()) {
      bt = overflow_.front()->time;
    } else {
      break;
    }
    if (bt > t) break;
    if (bt != now_) {
      now_ = bt;
      migrate_overflow();
    }
    // Drain the bucket. Schedules made by the handlers land either here
    // (zero delay: appended at the tail, drained by this same pass) or
    // in later buckets, and none can fall into the overflow's range
    // while now() stands still.
    const std::size_t idx = bt & kWheelMask;
    Bucket& b = wheel_[idx];
    const Time bound = bt == t ? birth_bound : kTimeNever;
    EventNode* n;
    while ((n = b.head) != nullptr && n->birth < bound) {
      b.head = n->next;
      --wheel_count_;
      ++dispatched_;
      // Invoke straight from the unlinked node; it is recycled after the
      // call returns. A handler that throws (model errors in failure-
      // injection tests) orphans its node until slab teardown; the
      // bitmap is restored so the kernel stays usable.
      try {
        if (n->body.ev.op != 0) {
          dispatcher_(n->body.ev);
        } else {
          n->body.cb.cb();
          n->body.cb.cb.reset();
        }
      } catch (...) {
        if (b.head == nullptr) mark_empty(idx);
        throw;
      }
      n->next = free_list_;
      free_list_ = n;
      ++count;
      if (kStep) break;
    }
    if (b.head == nullptr) mark_empty(idx);
    if (kStep || n != nullptr) break;
  }
  return count;
}

template std::uint64_t Simulator::drain<true>(Time, Time);
template std::uint64_t Simulator::drain<false>(Time, Time);

std::uint64_t Simulator::run_to(Time t, Time birth_bound) {
  const std::uint64_t n = drain<false>(t, birth_bound);
  if (now_ < t) {
    now_ = t;
    migrate_overflow();
  }
  return n;
}

std::string format_time(Time t) {
  char buf[48];
  if (t < 1000) {
    std::snprintf(buf, sizeof buf, "%" PRIu64 " ps", t);
  } else if (t < 1000000) {
    std::snprintf(buf, sizeof buf, "%.3f ns", to_ns(t));
  } else {
    std::snprintf(buf, sizeof buf, "%.3f us", to_us(t));
  }
  return buf;
}

}  // namespace mango::sim
