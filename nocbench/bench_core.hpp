// Steady-state NoC benchmark: workload definitions, one measured round,
// the output checks and the host-side probes (instruction counter, RSS,
// span recorder).
//
// A round composes a workload from the library's public calls in the
// order exp::run_scenario uses them — plan build, Network assembly, hub
// attachment, GS set open + start, BE pattern start, broker + churn —
// then advances the network in fixed simulated slices (a warm-up, then a
// measurement window), stops every source, drains the fabric to quiet
// and collects the stats. Every layer is timed from outside, around
// those calls; nothing inside the library is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/common/config.hpp"
#include "noc/network/topology.hpp"
#include "noc/router/router.hpp"
#include "noc/traffic/workload.hpp"
#include "sim/time.hpp"

namespace nocbench {

struct Workload {
  std::string name;
  mango::noc::TopologySpec topology;
  mango::noc::RouterConfig router;
  mango::noc::GsSetKind gs_set = mango::noc::GsSetKind::kNone;
  mango::sim::Time gs_period_ps = 0;
  mango::sim::Time be_interarrival_ps = 0;  ///< mean per node; 0 = no BE
  unsigned payload_words = 4;
  /// Runtime churn through the ConnectionBroker (0 = none).
  mango::sim::Time churn_interarrival_ps = 0;
  mango::sim::Time churn_hold_ps = 0;
  mango::sim::Time churn_gs_period_ps = 0;
  /// Simulated schedule of one round.
  mango::sim::Time warmup_ps = 0;
  mango::sim::Time slice_ps = 0;
  unsigned window_slices = 0;
  mango::sim::Time drain_slice_ps = 0;
  unsigned drain_slices_max = 0;

  mango::sim::Time window_ps() const { return slice_ps * window_slices; }
  /// Churn open requests per round: enough to keep requests arriving
  /// through the whole window (10% past its expected end), finite so the
  /// round drains.
  std::uint64_t churn_max_opens() const;
};

const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
const Workload* find_workload(const std::string& name);

// ---------------------------------------------------------------------------
// Outputs of a round and the checks over them
// ---------------------------------------------------------------------------

struct GsFlowOut {
  std::uint32_t tag = 0;
  std::uint32_t hops = 0;  ///< Network::route_moves(src, dst).size()
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_in_window = 0;
  std::uint64_t seq_errors = 0;
  std::uint64_t over_bound = 0;  ///< flits whose latency broke the bound
  double max_latency_ns = 0.0;
};

struct BeFlowOut {
  std::uint32_t tag = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
};

struct ChurnOut {
  bool present = false;
  std::uint64_t requested = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t pending = 0;  ///< still parked in the broker queue
  std::uint64_t violations = 0;
  std::uint64_t flits_generated = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t seq_errors = 0;
};

/// The paper's service contract, computed from the configured stage
/// delays: fair share = link rate / V with link rate = 1 / arb_cycle, and
/// a per-hop latency bound of V arbitration cycles plus the media
/// forward and buffer advance stages.
struct Limits {
  double window_ns = 0.0;
  double offered_flits_per_ns = 0.0;    ///< static GS CBR rate
  double guarantee_flits_per_ns = 0.0;  ///< link rate / V
  double hop_bound_ns = 0.0;            ///< V*arb_cycle + media_fwd + buf_adv
};
Limits service_limits(const mango::noc::RouterConfig& router,
                      mango::sim::Time gs_period_ps,
                      mango::sim::Time window_ps);

struct RoundOutputs {
  Limits limits;
  std::vector<GsFlowOut> gs;
  std::vector<BeFlowOut> be;
  ChurnOut churn;
  std::uint64_t events = 0;  ///< whole round
  mango::noc::RouterActivity activity;  ///< whole round, all routers
};

struct CheckResult {
  std::string name;
  std::uint64_t violations = 0;
  std::string first;  ///< description of the first violation
};

/// Every output check, in a fixed order: delivery, sequence, gs_rate,
/// gs_latency, churn_contract, churn_ledger.
std::vector<CheckResult> run_checks(const RoundOutputs& out);
/// Operations: GS flits (static and churn), BE packets, churn opens.
std::uint64_t attempted_operations(const RoundOutputs& out);
/// Undelivered, out-of-order and over-bound flits, undelivered packets,
/// and churn connections that broke the delivery rule. An admission
/// rejection is an outcome, not a failure.
std::uint64_t failed_operations(const RoundOutputs& out);
/// FNV-1a digest of the deterministic outputs: events, per-flow counts
/// and maximum latencies, churn totals and router activity totals.
std::uint64_t digest(const RoundOutputs& out);

// ---------------------------------------------------------------------------
// Host probes
// ---------------------------------------------------------------------------

/// User-space instructions retired by every thread this process has at
/// construction (perf_event_open, one counter per thread). Throws
/// std::runtime_error when a counter cannot be opened.
class InstructionCounter {
 public:
  InstructionCounter();
  ~InstructionCounter();
  InstructionCounter(const InstructionCounter&) = delete;
  InstructionCounter& operator=(const InstructionCounter&) = delete;
  std::uint64_t read() const;

 private:
  std::vector<int> fds_;
};

double resident_mb();  ///< current RSS
double peak_rss_mb();  ///< getrusage high-water mark

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
};

/// In-memory span recorder. Spans nest: a span's parent is the span open
/// when it began.
class Tracer {
 public:
  Tracer();
  int begin(const std::string& name);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON ("X" events; args.parent = parent name).
  std::string chrome_json() const;

 private:
  double now_us() const;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t origin_ns_ = 0;
};

/// RAII span; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* t, const std::string& name)
      : t_(t), id_(t ? t->begin(name) : -1) {}
  ~SpanScope() {
    if (t_) t_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// ---------------------------------------------------------------------------
// One round
// ---------------------------------------------------------------------------

struct RoundResult {
  // Host time (s) of each step.
  double plan_build_s = 0.0;
  double assembly_s = 0.0;
  double open_s = 0.0;
  double traffic_start_s = 0.0;
  double setup_s = 0.0;  ///< plan build .. traffic started
  double window_s = 0.0;
  double drain_s = 0.0;
  double hub_collect_s = 0.0;
  double report_collect_s = 0.0;
  double wall_s = 0.0;  ///< the whole round, teardown included
  std::vector<double> slice_ms;  ///< window slices

  double plan_rss_mb = 0.0;
  double arena_mb = 0.0;
  double hub_rss_growth_mb = 0.0;

  // Counts over the measurement window.
  double window_ns = 0.0;
  std::uint64_t window_events = 0;
  std::uint64_t window_instructions = 0;
  mango::noc::RouterActivity window_activity;
  std::uint64_t window_link_flits = 0;
  std::uint64_t window_na_be_packets = 0;
  std::uint64_t window_be_held = 0;
  std::uint64_t windows_run = 0;
  std::uint64_t windows_elided = 0;
  std::uint64_t hub_samples = 0;

  // Broker (churn workloads).
  std::uint64_t window_opens = 0;
  double admitted_ratio = 0.0;
  std::uint64_t host_queue_flits_max = 0;
  double setup_ns_p50 = 0.0;  ///< modelled request -> Ready

  bool drained = false;
  RoundOutputs out;
};

/// Runs one full round of `w` at `seed` on `shards` kernel shards.
RoundResult run_round(const Workload& w, std::uint64_t seed, unsigned shards,
                      Tracer* tracer);

/// Set-up only (plan build .. traffic started) on a cold plan; returns
/// its host seconds. Everything is torn down before it returns.
double cold_setup(const Workload& w, std::uint64_t seed, unsigned shards);

}  // namespace nocbench
