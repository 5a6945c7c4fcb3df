#include "bench_core.hpp"

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <limits>
#include <memory>
#include <stdexcept>

#include "noc/network/connection_broker.hpp"
#include "noc/network/connection_manager.hpp"
#include "noc/network/fabric_plan.hpp"
#include "noc/network/network.hpp"
#include "noc/network/report.hpp"
#include "noc/traffic/generator.hpp"
#include "noc/traffic/sink.hpp"
#include "sim/context.hpp"

namespace nocbench {

namespace noc = mango::noc;
namespace sim = mango::sim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr sim::Time kNs = 1000;
constexpr sim::Time kUs = 1000 * kNs;

Workload make_gs_ring_1k() {
  Workload w;
  w.name = "gs-ring-1k";
  // 16x16 rather than the 1024-endpoint 32x32 rung: the 32x32 working
  // set (~50 MB) spills the host's shared L3, and its host speed then
  // swung by +-20% between runs with identical instruction counts
  // (README.md, "Reference figures").
  w.topology = noc::TopologySpec::mesh(16, 16);
  w.gs_set = noc::GsSetKind::kRing;
  w.gs_period_ps = 8 * kNs;
  w.be_interarrival_ps = 250 * kNs;
  w.warmup_ps = 1 * kUs;
  w.slice_ps = 500 * kNs;
  w.window_slices = 40;
  w.drain_slice_ps = 100 * kNs;
  w.drain_slices_max = 100;
  return w;
}

Workload make_be_sat_torus() {
  Workload w;
  w.name = "be-sat-torus";
  w.topology = noc::TopologySpec::torus(16, 16);
  w.router.be_vcs = 2;
  w.be_interarrival_ps = 8 * kNs;
  w.warmup_ps = 500 * kNs;
  w.slice_ps = 100 * kNs;
  w.window_slices = 50;
  w.drain_slice_ps = 100 * kNs;
  w.drain_slices_max = 1000;
  return w;
}

Workload make_churn_8x8() {
  Workload w;
  w.name = "churn-8x8";
  w.topology = noc::TopologySpec::mesh(8, 8);
  w.be_interarrival_ps = 200 * kNs;
  w.churn_interarrival_ps = 100 * kNs;
  w.churn_hold_ps = 300 * kNs;
  w.churn_gs_period_ps = 16 * kNs;
  w.warmup_ps = 2 * kUs;
  w.slice_ps = 2 * kUs;
  w.window_slices = 50;
  w.drain_slice_ps = 1 * kUs;
  w.drain_slices_max = 1000;
  return w;
}

// --- probes -----------------------------------------------------------------

long perf_event_open(perf_event_attr* attr, pid_t tid) {
  return syscall(SYS_perf_event_open, attr, tid, -1, -1, 0);
}

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> tids;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) throw std::runtime_error("cannot list /proc/self/task");
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    tids.push_back(static_cast<pid_t>(std::atol(e->d_name)));
  }
  closedir(d);
  return tids;
}

// --- the assembled system of one round --------------------------------------

/// Everything a round builds, declared in run_scenario's order so it is
/// torn down in reverse.
struct Rig {
  std::unique_ptr<sim::SimContext> ctx;
  std::unique_ptr<noc::Network> net;
  std::unique_ptr<noc::HubSet> hub;
  std::unique_ptr<noc::ConnectionManager> mgr;
  std::vector<noc::GsSetEndpoint> eps;
  std::vector<std::unique_ptr<noc::GsStreamSource>> gs;
  std::vector<std::unique_ptr<noc::BeTrafficSource>> be;
  std::unique_ptr<noc::ConnectionBroker> broker;
  std::unique_ptr<noc::ChurnWorkload> churn;
};

/// Plan build .. traffic started, each step timed into `r`.
void set_up(Rig& rig, const Workload& w, std::uint64_t seed, unsigned shards,
            RoundResult& r, Tracer* tr) {
  SpanScope span(tr, "setup");
  const auto t0 = Clock::now();
  std::shared_ptr<const noc::FabricPlan> plan;
  {
    SpanScope s(tr, "plan.build");
    const double rss0 = resident_mb();
    const auto t = Clock::now();
    plan = noc::FabricPlan::build(w.topology, w.router.be_vcs);
    r.plan_build_s = seconds_since(t);
    r.plan_rss_mb = resident_mb() - rss0;
  }
  {
    SpanScope s(tr, "assembly");
    const auto t = Clock::now();
    rig.ctx = std::make_unique<sim::SimContext>(seed);
    noc::NetworkConfig cfg;
    cfg.topology = w.topology;
    cfg.router = w.router;
    cfg.shards = shards;
    cfg.plan = std::move(plan);
    rig.net = std::make_unique<noc::Network>(*rig.ctx, cfg);
    rig.hub = std::make_unique<noc::HubSet>(rig.net->shard_count());
    noc::attach_hub(*rig.net, *rig.hub);
    r.assembly_s = seconds_since(t);
    r.arena_mb = static_cast<double>(rig.net->arena_bytes()) / 1e6;
  }
  noc::Network& net = *rig.net;
  {
    SpanScope s(tr, "connections.open");
    const auto t = Clock::now();
    rig.mgr = std::make_unique<noc::ConnectionManager>(net, net.node_at(0));
    rig.eps = noc::open_gs_set(net, *rig.mgr, w.gs_set, noc::GsSetOptions{});
    r.open_s = seconds_since(t);
  }
  {
    SpanScope s(tr, "traffic.start");
    const auto t = Clock::now();
    noc::GsStreamSource::Options gs_opt;
    gs_opt.period_ps = w.gs_period_ps;
    rig.gs = noc::start_gs_set(net, rig.eps, gs_opt);
    if (w.be_interarrival_ps > 0) {
      rig.be = noc::start_pattern_be(net, noc::BePattern::kUniform,
                                     noc::BePatternOptions{},
                                     w.be_interarrival_ps, w.payload_words,
                                     seed);
    }
    if (w.churn_interarrival_ps > 0) {
      rig.broker = std::make_unique<noc::ConnectionBroker>(net, *rig.mgr);
      noc::ChurnOptions copt;
      copt.mean_open_interarrival_ps = w.churn_interarrival_ps;
      copt.mean_hold_ps = w.churn_hold_ps;
      copt.gs_period_ps = w.churn_gs_period_ps;
      copt.seed = seed;
      copt.max_opens = w.churn_max_opens();
      rig.churn = std::make_unique<noc::ChurnWorkload>(net, *rig.broker,
                                                       *rig.hub, copt);
      rig.churn->start();
    }
    r.traffic_start_s = seconds_since(t);
  }
  r.setup_s = seconds_since(t0);
}

struct WindowMark {
  std::uint64_t events = 0;
  noc::RouterActivity activity;
  std::uint64_t link_flits = 0;
  std::uint64_t na_be_packets = 0;
  std::uint64_t be_held = 0;
  std::uint64_t windows_run = 0;
  std::uint64_t windows_elided = 0;
  std::uint64_t opens = 0;
  std::vector<std::uint64_t> gs_delivered;
};

noc::RouterActivity total_activity(noc::Network& net) {
  noc::RouterActivity t;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const noc::RouterActivity a = net.router(net.node_at(i)).activity();
    t.switch_flits += a.switch_flits;
    t.vc_control_signals += a.vc_control_signals;
    t.arb_grants += a.arb_grants;
    t.be_router_flits += a.be_router_flits;
    t.link_flits_sent += a.link_flits_sent;
  }
  return t;
}

WindowMark mark(Rig& rig) {
  noc::Network& net = *rig.net;
  WindowMark m;
  m.events = net.events_dispatched();
  m.activity = total_activity(net);
  for (const noc::Link* l : net.links()) m.link_flits += l->flits_carried();
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    m.na_be_packets += net.na(net.node_at(i)).be_packets_sent();
  }
  for (const auto& s : rig.be) m.be_held += s->offered_but_held();
  m.windows_run = net.windows_run();
  m.windows_elided = net.windows_elided();
  if (rig.broker) m.opens = rig.broker->stats().requested;
  m.gs_delivered.reserve(rig.eps.size());
  for (const auto& ep : rig.eps) {
    m.gs_delivered.push_back(rig.hub->flow_flits(ep.tag));
  }
  return m;
}

/// Every source's output delivered and every churn request settled.
bool quiet(const Rig& rig, std::uint64_t churn_opens) {
  for (const auto& s : rig.gs) {
    if (rig.hub->flow_flits(s->tag()) != s->generated()) return false;
  }
  for (const auto& s : rig.be) {
    if (rig.hub->flow_packets(s->tag()) != s->generated()) return false;
  }
  if (rig.broker) {
    const auto& st = rig.broker->stats();
    if (st.requested != churn_opens || rig.broker->queue_depth() != 0 ||
        rig.broker->live_connections() != 0) {
      return false;
    }
  }
  return true;
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
}

std::uint64_t bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

std::uint64_t sub0(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : 0; }

}  // namespace

std::uint64_t Workload::churn_max_opens() const {
  if (churn_interarrival_ps == 0) return 0;
  const sim::Time span = warmup_ps + window_ps();
  return static_cast<std::uint64_t>(1.1 * static_cast<double>(span) /
                                    static_cast<double>(churn_interarrival_ps));
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      make_gs_ring_1k(), make_be_sat_torus(), make_churn_8x8()};
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Limits service_limits(const noc::RouterConfig& router, sim::Time gs_period_ps,
                      sim::Time window_ps) {
  const noc::StageDelays d = noc::stage_delays(router.corner);
  const double v = router.vcs_per_port;
  const double arb_ns = sim::to_ns(d.arb_cycle);
  Limits l;
  l.window_ns = sim::to_ns(window_ps);
  // A saturating source (period 0) offers more than any link carries.
  l.offered_flits_per_ns = gs_period_ps > 0
                               ? 1.0 / sim::to_ns(gs_period_ps)
                               : std::numeric_limits<double>::infinity();
  l.guarantee_flits_per_ns = (1.0 / arb_ns) / v;
  l.hop_bound_ns =
      v * arb_ns + sim::to_ns(d.media_forward()) + sim::to_ns(d.buf_advance);
  return l;
}

// --- checks -----------------------------------------------------------------

std::vector<CheckResult> run_checks(const RoundOutputs& out) {
  const Limits& lim = out.limits;
  CheckResult delivery{"delivery", 0, {}};
  CheckResult sequence{"sequence", 0, {}};
  CheckResult rate{"gs_rate", 0, {}};
  CheckResult latency{"gs_latency", 0, {}};
  CheckResult contract{"churn_contract", 0, {}};
  CheckResult ledger{"churn_ledger", 0, {}};
  const auto flag = [](CheckResult& c, const std::string& what) {
    if (c.violations++ == 0) c.first = what;
  };
  char buf[256];
  for (const GsFlowOut& f : out.gs) {
    if (f.delivered != f.generated) {
      std::snprintf(buf, sizeof buf, "GS tag %#x delivered %llu of %llu",
                    f.tag, static_cast<unsigned long long>(f.delivered),
                    static_cast<unsigned long long>(f.generated));
      flag(delivery, buf);
    }
    if (f.seq_errors > 0) {
      std::snprintf(buf, sizeof buf, "GS tag %#x: %llu sequence errors",
                    f.tag, static_cast<unsigned long long>(f.seq_errors));
      flag(sequence, buf);
    }
    const double bound_ns = f.hops * lim.hop_bound_ns;
    const double rate_need =
        std::min(lim.offered_flits_per_ns, lim.guarantee_flits_per_ns);
    // The window edges may hold up to one bound's worth of flits in
    // flight, plus one flit of CBR phase.
    const double need = rate_need * (lim.window_ns - bound_ns) - 1.0;
    if (static_cast<double>(f.delivered_in_window) < need) {
      std::snprintf(buf, sizeof buf,
                    "GS tag %#x delivered %llu flits in the window, needs %.1f",
                    f.tag, static_cast<unsigned long long>(f.delivered_in_window),
                    need);
      flag(rate, buf);
    }
    if (f.max_latency_ns > bound_ns || f.over_bound > 0) {
      std::snprintf(buf, sizeof buf,
                    "GS tag %#x worst latency %.3f ns > bound %.3f ns (%u hops)",
                    f.tag, f.max_latency_ns, bound_ns, f.hops);
      flag(latency, buf);
    }
  }
  for (const BeFlowOut& b : out.be) {
    if (b.delivered != b.generated) {
      std::snprintf(buf, sizeof buf, "BE tag %#x delivered %llu of %llu",
                    b.tag, static_cast<unsigned long long>(b.delivered),
                    static_cast<unsigned long long>(b.generated));
      flag(delivery, buf);
    }
  }
  const ChurnOut& c = out.churn;
  if (c.present) {
    if (c.flits_delivered != c.flits_generated) {
      std::snprintf(buf, sizeof buf, "churn streams delivered %llu of %llu",
                    static_cast<unsigned long long>(c.flits_delivered),
                    static_cast<unsigned long long>(c.flits_generated));
      flag(delivery, buf);
    }
    if (c.seq_errors > 0) flag(sequence, "churn streams saw sequence errors");
    if (c.violations > 0) {
      std::snprintf(buf, sizeof buf, "%llu churn connections broke delivery",
                    static_cast<unsigned long long>(c.violations));
      flag(contract, buf);
    }
    if (c.requested != c.admitted + c.rejected + c.pending) {
      std::snprintf(buf, sizeof buf,
                    "requested %llu != admitted %llu + rejected %llu + "
                    "pending %llu",
                    static_cast<unsigned long long>(c.requested),
                    static_cast<unsigned long long>(c.admitted),
                    static_cast<unsigned long long>(c.rejected),
                    static_cast<unsigned long long>(c.pending));
      flag(ledger, buf);
    }
  }
  return {delivery, sequence, rate, latency, contract, ledger};
}

std::uint64_t attempted_operations(const RoundOutputs& out) {
  std::uint64_t n = 0;
  for (const GsFlowOut& f : out.gs) n += f.generated;
  for (const BeFlowOut& b : out.be) n += b.generated;
  n += out.churn.flits_generated + out.churn.requested;
  return n;
}

std::uint64_t failed_operations(const RoundOutputs& out) {
  std::uint64_t n = 0;
  for (const GsFlowOut& f : out.gs) {
    n += sub0(f.generated, f.delivered) + f.seq_errors + f.over_bound;
  }
  for (const BeFlowOut& b : out.be) n += sub0(b.generated, b.delivered);
  const ChurnOut& c = out.churn;
  n += sub0(c.flits_generated, c.flits_delivered) + c.seq_errors + c.violations;
  return std::min(n, attempted_operations(out));
}

std::uint64_t digest(const RoundOutputs& out) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  fnv(h, out.events);
  for (const GsFlowOut& f : out.gs) {
    fnv(h, f.tag);
    fnv(h, f.generated);
    fnv(h, f.delivered);
    fnv(h, f.delivered_in_window);
    fnv(h, f.seq_errors);
    fnv(h, f.over_bound);
    fnv(h, bits(f.max_latency_ns));
  }
  for (const BeFlowOut& b : out.be) {
    fnv(h, b.tag);
    fnv(h, b.generated);
    fnv(h, b.delivered);
  }
  const ChurnOut& c = out.churn;
  for (const std::uint64_t v :
       {c.requested, c.admitted, c.rejected, c.pending, c.violations,
        c.flits_generated, c.flits_delivered, c.seq_errors}) {
    fnv(h, v);
  }
  const noc::RouterActivity& a = out.activity;
  for (const std::uint64_t v : {a.switch_flits, a.vc_control_signals,
                                a.arb_grants, a.be_router_flits,
                                a.link_flits_sent}) {
    fnv(h, v);
  }
  return h;
}

// --- probes -----------------------------------------------------------------

InstructionCounter::InstructionCounter() {
  for (const pid_t tid : thread_ids()) {
    perf_event_attr attr{};
    attr.size = sizeof attr;
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = PERF_COUNT_HW_INSTRUCTIONS;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    const long fd = perf_event_open(&attr, tid);
    if (fd < 0) {
      const std::string why = std::strerror(errno);
      for (const int f : fds_) close(f);
      throw std::runtime_error("perf_event_open(instructions) failed: " + why);
    }
    fds_.push_back(static_cast<int>(fd));
  }
}

InstructionCounter::~InstructionCounter() {
  for (const int f : fds_) close(f);
}

std::uint64_t InstructionCounter::read() const {
  std::uint64_t total = 0;
  for (const int f : fds_) {
    std::uint64_t v = 0;
    if (::read(f, &v, sizeof v) != static_cast<ssize_t>(sizeof v)) {
      throw std::runtime_error("reading the instruction counter failed");
    }
    total += v;
  }
  return total;
}

double resident_mb() {
  long pages = 0;
  long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

Tracer::Tracer()
    : origin_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now().time_since_epoch())
                     .count()) {}

double Tracer::now_us() const {
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now().time_since_epoch())
                              .count();
  return static_cast<double>(ns - origin_ns_) / 1e3;
}

int Tracer::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.start_us = now_us();
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_us = now_us();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::string Tracer::chrome_json() const {
  std::string js = "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* parent =
        s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name.c_str();
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,\"parent\":%d,"
                  "\"parent_name\":\"%s\"}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                  s.end_us - s.start_us, i, s.parent, parent);
    js += buf;
  }
  js += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return js;
}

// --- rounds -----------------------------------------------------------------

double cold_setup(const Workload& w, std::uint64_t seed, unsigned shards) {
  RoundResult r;
  {
    Rig rig;
    set_up(rig, w, seed, shards, r, nullptr);
  }
  return r.setup_s;
}

RoundResult run_round(const Workload& w, std::uint64_t seed, unsigned shards,
                      Tracer* tr) {
  SpanScope round_span(tr, "round");
  const auto t_round = Clock::now();
  RoundResult r;
  {
    auto owned = std::make_unique<Rig>();
    Rig& rig = *owned;
    set_up(rig, w, seed, shards, r, tr);
    noc::Network& net = *rig.net;
    noc::NetworkAdapter& host_na = net.na(net.node_at(0));
    const auto sample_host_queue = [&] {
      r.host_queue_flits_max = std::max<std::uint64_t>(
          r.host_queue_flits_max, host_na.be_queue_flits());
    };

    {
      SpanScope s(tr, "warmup");
      for (sim::Time at = w.slice_ps; at <= w.warmup_ps; at += w.slice_ps) {
        SpanScope slice(tr, "slice");
        net.run_until(at);
        sample_host_queue();
      }
    }

    {
      SpanScope s(tr, "window");
      const WindowMark m0 = mark(rig);
      const double rss0 = resident_mb();
      InstructionCounter instr;
      const std::uint64_t i0 = instr.read();
      const auto t = Clock::now();
      r.slice_ms.reserve(w.window_slices);
      for (unsigned k = 1; k <= w.window_slices; ++k) {
        SpanScope slice(tr, "slice");
        const auto ts = Clock::now();
        net.run_until(w.warmup_ps + k * w.slice_ps);
        r.slice_ms.push_back(seconds_since(ts) * 1e3);
        sample_host_queue();
      }
      r.window_s = seconds_since(t);
      r.window_instructions = instr.read() - i0;
      r.hub_rss_growth_mb = resident_mb() - rss0;
      const WindowMark m1 = mark(rig);
      r.window_ns = sim::to_ns(w.window_ps());
      r.window_events = m1.events - m0.events;
      r.window_activity.switch_flits =
          m1.activity.switch_flits - m0.activity.switch_flits;
      r.window_activity.vc_control_signals =
          m1.activity.vc_control_signals - m0.activity.vc_control_signals;
      r.window_activity.arb_grants =
          m1.activity.arb_grants - m0.activity.arb_grants;
      r.window_activity.be_router_flits =
          m1.activity.be_router_flits - m0.activity.be_router_flits;
      r.window_activity.link_flits_sent =
          m1.activity.link_flits_sent - m0.activity.link_flits_sent;
      r.window_link_flits = m1.link_flits - m0.link_flits;
      r.window_na_be_packets = m1.na_be_packets - m0.na_be_packets;
      r.window_be_held = m1.be_held - m0.be_held;
      r.windows_run = m1.windows_run - m0.windows_run;
      r.windows_elided = m1.windows_elided - m0.windows_elided;
      r.window_opens = m1.opens - m0.opens;
      r.out.gs.resize(rig.eps.size());
      for (std::size_t i = 0; i < rig.eps.size(); ++i) {
        r.out.gs[i].delivered_in_window =
            m1.gs_delivered[i] - m0.gs_delivered[i];
      }
    }

    const sim::Time window_end = w.warmup_ps + w.window_ps();
    sim::Time now = window_end;
    {
      SpanScope s(tr, "drain");
      const auto t = Clock::now();
      for (auto& src : rig.gs) src->stop();
      for (auto& src : rig.be) src->stop();
      const std::uint64_t opens = w.churn_max_opens();
      for (unsigned k = 0; k < w.drain_slices_max; ++k) {
        if (quiet(rig, opens)) {
          r.drained = true;
          break;
        }
        SpanScope slice(tr, "slice");
        now += w.drain_slice_ps;
        net.run_until(now);
      }
      if (!r.drained) r.drained = quiet(rig, opens);
      r.drain_s = seconds_since(t);
    }

    {
      SpanScope s(tr, "hub.collect");
      const auto t = Clock::now();
      const noc::HubSet& hub = *rig.hub;
      r.out.limits = service_limits(w.router, w.gs_period_ps, w.window_ps());
      std::vector<double> flow;
      std::vector<double> merged;
      for (std::size_t i = 0; i < rig.eps.size(); ++i) {
        const noc::GsSetEndpoint& ep = rig.eps[i];
        GsFlowOut& f = r.out.gs[i];
        f.tag = ep.tag;
        f.hops = static_cast<std::uint32_t>(net.route_moves(ep.src, ep.dst).size());
        f.generated = rig.gs[i]->generated();
        f.delivered = hub.flow_flits(ep.tag);
        f.seq_errors = hub.flow_seq_errors(ep.tag);
        flow.clear();
        hub.append_latency_samples(ep.tag, flow);
        const double bound = f.hops * r.out.limits.hop_bound_ns;
        for (const double x : flow) {
          f.max_latency_ns = std::max(f.max_latency_ns, x);
          if (x > bound) ++f.over_bound;
        }
        merged.insert(merged.end(), flow.begin(), flow.end());
      }
      for (const auto& src : rig.be) {
        BeFlowOut b;
        b.tag = src->tag();
        b.generated = src->generated();
        b.delivered = hub.flow_packets(src->tag());
        r.out.be.push_back(b);
        hub.append_latency_samples(src->tag(), merged);
      }
      std::sort(merged.begin(), merged.end());
      r.hub_samples = merged.size();
      if (rig.churn) {
        const noc::ChurnWorkload::Totals t_churn = rig.churn->finalize(now);
        const auto& st = rig.broker->stats();
        ChurnOut& c = r.out.churn;
        c.present = true;
        c.requested = st.requested;
        c.admitted = st.admitted;
        c.rejected = st.rejected;
        c.pending = rig.broker->queue_depth();
        c.violations = t_churn.violations;
        c.flits_generated = t_churn.flits_generated;
        c.flits_delivered = t_churn.flits_delivered;
        c.seq_errors = t_churn.seq_errors;
        r.admitted_ratio = st.requested == 0
                               ? 0.0
                               : static_cast<double>(st.admitted) /
                                     static_cast<double>(st.requested);
        sim::Histogram setup = st.setup_latency_ns;
        r.setup_ns_p50 = setup.p50();
      }
      r.out.events = net.events_dispatched();
      r.out.activity = total_activity(net);
      r.hub_collect_s = seconds_since(t);
    }

    {
      SpanScope s(tr, "report.collect");
      const auto t = Clock::now();
      noc::NetworkReport rep = noc::NetworkReport::collect(net, w.window_ps());
      if (rig.broker) rep.attach_lifecycle(*rig.broker);
      std::string js;
      noc::JsonWriter jw(&js);
      rep.write_json(jw);
      r.report_collect_s = seconds_since(t);
    }
    SpanScope s(tr, "teardown");
    owned.reset();
  }
  r.wall_s = seconds_since(t_round);
  return r;
}

}  // namespace nocbench
