// Negative controls for the benchmark's output checks: each check must
// pass on a clean round and fail on a doctored copy of its outputs or on
// a scenario built to trip it. Exit code 0 only when every control
// behaves so.
//
//   nocbench_controls
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_core.hpp"

namespace {

namespace noc = mango::noc;
using nocbench::RoundOutputs;
using nocbench::Workload;

constexpr mango::sim::Time kNs = 1000;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::uint64_t violations(const RoundOutputs& out, const std::string& check) {
  for (const nocbench::CheckResult& c : nocbench::run_checks(out)) {
    if (c.name == check) return c.violations;
  }
  std::printf("no check named %s\n", check.c_str());
  ++failures;
  return 0;
}

/// A 4x4 mesh carrying every kind of traffic the checks look at: a GS
/// ring, uniform BE and broker churn.
Workload mixed_4x4() {
  Workload w;
  w.name = "controls-4x4";
  w.topology = noc::TopologySpec::mesh(4, 4);
  w.gs_set = noc::GsSetKind::kRing;
  w.gs_period_ps = 16 * kNs;
  w.be_interarrival_ps = 200 * kNs;
  w.churn_interarrival_ps = 100 * kNs;
  w.churn_hold_ps = 300 * kNs;
  w.churn_gs_period_ps = 16 * kNs;
  w.warmup_ps = 1000 * kNs;
  w.slice_ps = 500 * kNs;
  w.window_slices = 8;
  w.drain_slice_ps = 500 * kNs;
  w.drain_slices_max = 200;
  return w;
}

/// Doctors one field of a clean round and expects exactly `check` to
/// trip (and the failed-operation count to rise where the doctored field
/// is an operation outcome).
void doctored(const RoundOutputs& clean, const std::string& check,
              const std::string& what,
              const std::function<void(RoundOutputs&)>& edit,
              bool counts_failure) {
  RoundOutputs bad = clean;
  edit(bad);
  expect(violations(bad, check) > 0, check + " trips on " + what);
  for (const nocbench::CheckResult& c : nocbench::run_checks(bad)) {
    if (c.name != check && c.violations > 0) {
      expect(false, what + " also tripped " + c.name);
    }
  }
  if (counts_failure) {
    expect(nocbench::failed_operations(bad) > 0,
           what + " counts as a failed operation");
  }
  expect(nocbench::digest(bad) != nocbench::digest(clean),
         what + " changes the output digest");
}

}  // namespace

int main() {
  const Workload mixed = mixed_4x4();
  const nocbench::RoundResult clean_round =
      nocbench::run_round(mixed, 7, 1, nullptr);
  const RoundOutputs& clean = clean_round.out;

  // Positive control: the clean round passes every check.
  for (const nocbench::CheckResult& c : nocbench::run_checks(clean)) {
    expect(c.violations == 0, "clean round passes " + c.name +
                                  (c.violations ? " (" + c.first + ")" : ""));
  }
  expect(!clean.gs.empty() && !clean.be.empty() && clean.churn.present &&
             clean.churn.requested > 0,
         "clean round carries GS, BE and churn traffic");
  expect(nocbench::failed_operations(clean) == 0 &&
             nocbench::attempted_operations(clean) > 0,
         "clean round: operations attempted, none failed");

  // Doctored results, one per check.
  doctored(clean, "delivery", "a GS flit lost",
           [](RoundOutputs& o) { o.gs[0].delivered -= 1; }, true);
  doctored(clean, "delivery", "a BE packet lost",
           [](RoundOutputs& o) { o.be[0].delivered -= 1; }, true);
  doctored(clean, "delivery", "a churn flit lost",
           [](RoundOutputs& o) { o.churn.flits_delivered -= 1; }, true);
  doctored(clean, "sequence", "a GS flit out of order",
           [](RoundOutputs& o) { o.gs[0].seq_errors = 1; }, true);
  doctored(clean, "gs_rate", "a connection short of its fair share",
           [](RoundOutputs& o) {
             o.gs[0].delivered_in_window = static_cast<std::uint64_t>(
                 0.5 * o.limits.guarantee_flits_per_ns * o.limits.window_ns);
           },
           false);
  doctored(clean, "gs_latency", "a flit over the hop bound",
           [](RoundOutputs& o) {
             o.gs[0].max_latency_ns = o.gs[0].hops * o.limits.hop_bound_ns + 0.001;
             o.gs[0].over_bound = 1;
           },
           true);
  doctored(clean, "churn_contract", "a churn connection losing flits",
           [](RoundOutputs& o) { o.churn.violations = 1; }, true);
  doctored(clean, "churn_ledger", "an unaccounted open request",
           [](RoundOutputs& o) { o.churn.requested += 1; }, false);

  // Shard digest: any change in the deterministic outputs moves it.
  {
    RoundOutputs bad = clean;
    bad.events += 1;
    expect(nocbench::digest(bad) != nocbench::digest(clean),
           "digest moves with the event count");
    bad = clean;
    bad.activity.arb_grants += 1;
    expect(nocbench::digest(bad) != nocbench::digest(clean),
           "digest moves with router activity");
    const nocbench::RoundResult again = nocbench::run_round(mixed, 7, 2, nullptr);
    expect(nocbench::digest(again.out) == nocbench::digest(clean),
           "the same spec at 2 shards has the 1-shard digest");
    const nocbench::RoundResult other = nocbench::run_round(mixed, 8, 1, nullptr);
    expect(nocbench::digest(other.out) != nocbench::digest(clean),
           "another seed has another digest");
  }

  // Scenario: no drain. Flits still in flight when the round ends are
  // undelivered, so the delivery check and the failure count trip.
  {
    Workload w = mixed;
    w.drain_slices_max = 0;
    const nocbench::RoundResult r = nocbench::run_round(w, 7, 1, nullptr);
    expect(!r.drained, "no-drain scenario leaves traffic in flight");
    expect(violations(r.out, "delivery") > 0, "delivery trips without a drain");
    expect(nocbench::failed_operations(r.out) > 0,
           "undelivered operations count as failed");
  }

  // Scenario: the unregulated-arbiter ablation (static priority without
  // per-VC fairness) with saturating all-to-hotspot connections starves
  // the low-priority VCs, so the fair-share rate and the latency bound
  // both trip.
  {
    Workload w;
    w.name = "controls-starve";
    w.topology = noc::TopologySpec::mesh(3, 3);
    w.router.arbiter = noc::ArbiterKind::kUnregulated;
    w.gs_set = noc::GsSetKind::kAllToHotspot;
    w.gs_period_ps = 0;
    w.warmup_ps = 200 * kNs;
    w.slice_ps = 200 * kNs;
    w.window_slices = 5;
    w.drain_slice_ps = 1000 * kNs;
    w.drain_slices_max = 100;
    const nocbench::RoundResult r = nocbench::run_round(w, 7, 1, nullptr);
    expect(violations(r.out, "gs_rate") > 0,
           "gs_rate trips when the arbiter starves a VC");
    expect(violations(r.out, "gs_latency") > 0,
           "gs_latency trips when the arbiter starves a VC");
  }

  std::printf("%s: %d control(s) misbehaved\n", failures ? "FAILED" : "PASSED",
              failures);
  return failures == 0 ? 0 : 1;
}
