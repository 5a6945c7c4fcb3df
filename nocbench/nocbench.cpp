// Steady-state NoC benchmark: runs one workload for a host-time
// budget in whole rounds and prints its metrics. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run (spans around every layer call, written as
// Chrome trace-event JSON to --trace-out).
//
//   nocbench --workload NAME --seed N --seconds S --trace 0|1
//            [--shards N] [--rounds N] [--trace-out FILE]
//
// Measured rounds run on --shards kernel shards (default 1; a traced run
// takes 1 only); every round of a run must give the same output digest.
// A traced run adds one round on 2 shards for the shard-engine counts.
// --rounds fixes the round count instead of the time budget.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_core.hpp"

namespace {

using nocbench::RoundResult;
using nocbench::Workload;

/// Linear-interpolated quantile (q = 0.5: the median).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

template <typename F>
double median_of(const std::vector<RoundResult>& rs, F f) {
  std::vector<double> v;
  v.reserve(rs.size());
  for (const RoundResult& r : rs) v.push_back(f(r));
  return quantile(v, 0.5);
}

double per(double n, double d) { return d > 0 ? n / d : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics in print order, with their units. BENCHMARK.json
/// lists the same names and units (run.py compares them on every run);
/// nocbench/README.md maps each to the end-to-end metric it moves.
struct LayerInfo {
  const char* name;
  const char* unit;
};

const LayerInfo kLayers[] = {
    {"plan.build_s", "s"},
    {"plan.rss_mb", "MB"},
    {"assembly.build_s", "s"},
    {"assembly.arena_mb", "MB"},
    {"connections.open_s", "s"},
    {"broker.opens_per_sim_us", "1/us"},
    {"broker.admitted_ratio", "ratio"},
    {"broker.host_queue_flits_max", "flits"},
    {"broker.setup_ns_p50", "sim_ns"},
    {"traffic.start_s", "s"},
    {"traffic.be_held_per_sim_ns", "1/ns"},
    {"hub.samples", "count"},
    {"hub.collect_s", "s"},
    {"hub.rss_growth_mb", "MB"},
    {"kernel.events_per_sim_ns", "1/ns"},
    {"kernel.instr_per_event", "instr"},
    {"kernel.host_ns_per_event", "ns"},
    {"kernel.events_per_flit_hop", "ratio"},
    {"slice.ms_p50", "ms"},
    {"slice.ms_iqr", "ms"},
    {"parallel.windows_per_sim_ns", "1/ns"},
    {"parallel.elided_ratio", "ratio"},
    {"router.switch_flits_per_sim_ns", "1/ns"},
    {"router.vc_control_per_sim_ns", "1/ns"},
    {"router.arb_grants_per_sim_ns", "1/ns"},
    {"router.be_flits_per_sim_ns", "1/ns"},
    {"link.flits_per_sim_ns", "1/ns"},
    {"na.be_packets_per_sim_ns", "1/ns"},
    {"report.collect_s", "s"},
    {"drain_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

std::vector<Metric> layer_metrics(const std::vector<RoundResult>& rs,
                                  const RoundResult& sharded,
                                  double overhead_ratio) {
  std::map<std::string, double> v;
  const auto rate = [&](auto f) {
    return median_of(rs, [&](const RoundResult& r) {
      return per(static_cast<double>(f(r)), r.window_ns);
    });
  };
  v["plan.build_s"] = median_of(rs, [](const RoundResult& r) { return r.plan_build_s; });
  v["plan.rss_mb"] = median_of(rs, [](const RoundResult& r) { return r.plan_rss_mb; });
  v["assembly.build_s"] = median_of(rs, [](const RoundResult& r) { return r.assembly_s; });
  v["assembly.arena_mb"] = median_of(rs, [](const RoundResult& r) { return r.arena_mb; });
  v["connections.open_s"] = median_of(rs, [](const RoundResult& r) { return r.open_s; });
  v["broker.opens_per_sim_us"] =
      rate([](const RoundResult& r) { return r.window_opens; }) * 1e3;
  v["broker.admitted_ratio"] = median_of(rs, [](const RoundResult& r) { return r.admitted_ratio; });
  v["broker.host_queue_flits_max"] = median_of(
      rs, [](const RoundResult& r) { return static_cast<double>(r.host_queue_flits_max); });
  v["broker.setup_ns_p50"] = median_of(rs, [](const RoundResult& r) { return r.setup_ns_p50; });
  v["traffic.start_s"] = median_of(rs, [](const RoundResult& r) { return r.traffic_start_s; });
  v["traffic.be_held_per_sim_ns"] = rate([](const RoundResult& r) { return r.window_be_held; });
  v["hub.samples"] = median_of(
      rs, [](const RoundResult& r) { return static_cast<double>(r.hub_samples); });
  v["hub.collect_s"] = median_of(rs, [](const RoundResult& r) { return r.hub_collect_s; });
  v["hub.rss_growth_mb"] = median_of(rs, [](const RoundResult& r) { return r.hub_rss_growth_mb; });
  v["kernel.events_per_sim_ns"] = rate([](const RoundResult& r) { return r.window_events; });
  v["kernel.instr_per_event"] = median_of(rs, [](const RoundResult& r) {
    return per(static_cast<double>(r.window_instructions),
               static_cast<double>(r.window_events));
  });
  v["kernel.host_ns_per_event"] = median_of(rs, [](const RoundResult& r) {
    return per(r.window_s * 1e9, static_cast<double>(r.window_events));
  });
  v["kernel.events_per_flit_hop"] = median_of(rs, [](const RoundResult& r) {
    return per(static_cast<double>(r.window_events),
               static_cast<double>(r.window_activity.switch_flits +
                                   r.window_activity.be_router_flits));
  });
  std::vector<double> slices;
  for (const RoundResult& r : rs) {
    slices.insert(slices.end(), r.slice_ms.begin(), r.slice_ms.end());
  }
  v["slice.ms_p50"] = quantile(slices, 0.5);
  v["slice.ms_iqr"] = quantile(slices, 0.75) - quantile(slices, 0.25);
  v["parallel.windows_per_sim_ns"] =
      per(static_cast<double>(sharded.windows_run), sharded.window_ns);
  v["parallel.elided_ratio"] =
      per(static_cast<double>(sharded.windows_elided),
          static_cast<double>(sharded.windows_run + sharded.windows_elided));
  v["router.switch_flits_per_sim_ns"] =
      rate([](const RoundResult& r) { return r.window_activity.switch_flits; });
  v["router.vc_control_per_sim_ns"] =
      rate([](const RoundResult& r) { return r.window_activity.vc_control_signals; });
  v["router.arb_grants_per_sim_ns"] =
      rate([](const RoundResult& r) { return r.window_activity.arb_grants; });
  v["router.be_flits_per_sim_ns"] =
      rate([](const RoundResult& r) { return r.window_activity.be_router_flits; });
  v["link.flits_per_sim_ns"] = rate([](const RoundResult& r) { return r.window_link_flits; });
  v["na.be_packets_per_sim_ns"] =
      rate([](const RoundResult& r) { return r.window_na_be_packets; });
  v["report.collect_s"] = median_of(rs, [](const RoundResult& r) { return r.report_collect_s; });
  v["drain_s"] = median_of(rs, [](const RoundResult& r) { return r.drain_s; });
  v["trace.overhead_ratio"] = overhead_ratio;

  std::vector<Metric> out;
  for (const LayerInfo& l : kLayers) out.push_back({l.name, v.at(l.name), l.unit});
  return out;
}

/// Total and self host time per span name (self = duration minus the
/// part covered by child spans).
void print_span_table(const nocbench::Tracer& tr) {
  const auto& spans = tr.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const nocbench::Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  }
  struct Agg {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Agg& a = by_name[spans[i].name];
    const double d = spans[i].end_us - spans[i].start_us;
    a.total_ms += d / 1e3;
    a.self_ms += (d - child[i]) / 1e3;
    ++a.count;
  }
  std::printf("%-20s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, a] : by_name) {
    std::printf("%-20s %8zu %12.3f %12.3f\n", name.c_str(), a.count, a.total_ms,
                a.self_ms);
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  unsigned shards = 1;
  unsigned rounds = 0;  ///< 0 = as many as the budget holds
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = std::atoi(v.c_str());
    else if (k == "--shards") a.shards = static_cast<unsigned>(std::atoi(v.c_str()));
    else if (k == "--rounds") a.rounds = static_cast<unsigned>(std::atoi(v.c_str()));
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 && a.shards > 0 &&
         (a.trace == 0 || (a.trace == 1 && a.shards == 1));
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: nocbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--shards N (with --trace 0)] [--rounds N] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const Workload* w = nocbench::find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const unsigned shards = args.shards;
  const bool traced = args.trace == 1;
  const auto t_start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
        .count();
  };

  nocbench::Tracer tracer;
  std::vector<RoundResult> plain;   // untraced rounds
  std::vector<RoundResult> rounds_traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::uint64_t first_digest = 0;
  bool have_digest = false;
  std::vector<std::string> problems;
  const auto fail = [&](const std::string& what) {
    correct = false;
    problems.push_back(what);
  };

  // Checks a finished round and counts its operations. Rounds on the
  // measured shard count must repeat the first round's digest.
  const auto account = [&](const RoundResult& r, const std::string& label,
                           bool same_digest) {
    const std::uint64_t d = nocbench::digest(r.out);
    if (!have_digest) {
      first_digest = d;
      have_digest = true;
    } else if (same_digest && d != first_digest) {
      fail(label + ": digest differs from round 0");
    }
    for (const nocbench::CheckResult& c : nocbench::run_checks(r.out)) {
      if (c.violations > 0) {
        fail(label + ": check " + c.name + ": " + std::to_string(c.violations) +
             " violations, first: " + c.first);
      }
    }
    if (r.window_instructions == 0) {
      fail(label + ": the instruction counter read 0 over the window");
    }
    attempted += nocbench::attempted_operations(r.out);
    failed += nocbench::failed_operations(r.out);
    std::printf("%s: setup_s %.6f wall_s %.6f sim_ns_per_s %.1f "
                "instr_per_sim_ns %.1f digest %016llx\n",
                label.c_str(), r.setup_s, r.wall_s, per(r.window_ns, r.window_s),
                per(static_cast<double>(r.window_instructions), r.window_ns),
                static_cast<unsigned long long>(d));
  };

  // Whole rounds until the budget is spent (at least three; a traced run
  // alternates untraced and traced rounds, at least one of each). An
  // untraced run follows each round with kSetupsPerRound cold set-ups,
  // so that setup_s samples the whole run. A traced run then runs the
  // same spec once on 2 shards for the shard-engine counts, and reports
  // whether its digest matches.
  // That comparison is a diagnostic, not a check: the sharded engine
  // diverges from the single kernel on a few seeds of every workload
  // (README.md, "Shard invariance").
  const unsigned min_rounds = 3;
  constexpr unsigned kSetupsPerRound = 2;
  std::vector<double> setups;
  double peak_rss = 0.0;
  RoundResult sharded_round;
  try {
    for (unsigned k = 0;; ++k) {
      const std::size_t done = plain.size() + rounds_traced.size();
      if (args.rounds != 0) {
        if (done >= args.rounds) break;
      } else if (done >= min_rounds) {
        std::vector<double> walls;
        for (const auto* v : {&plain, &rounds_traced}) {
          for (const RoundResult& r : *v) walls.push_back(r.wall_s);
        }
        if (elapsed() + quantile(walls, 0.5) > args.seconds) break;
      }
      const bool trace_this = traced && k % 2 == 1;
      RoundResult r = nocbench::run_round(*w, args.seed, shards,
                                          trace_this ? &tracer : nullptr);
      account(r, "round " + std::to_string(done) + (trace_this ? " (traced)" : ""),
              true);
      if (!traced) {
        setups.push_back(r.setup_s);
        for (unsigned i = 0; i < kSetupsPerRound; ++i) {
          setups.push_back(nocbench::cold_setup(*w, args.seed, shards));
        }
      }
      (trace_this ? rounds_traced : plain).push_back(std::move(r));
    }
    peak_rss = nocbench::peak_rss_mb();
    if (traced) {
      nocbench::SpanScope span(&tracer, "sharded_round");
      sharded_round = nocbench::run_round(*w, args.seed, 2, &tracer);
      account(sharded_round, "2-shard round", false);
      std::printf("2-shard digest %s the 1-shard rounds' (diagnostic only)\n",
                  nocbench::digest(sharded_round.out) == first_digest ? "matches"
                                                                      : "differs from");
    }
  } catch (const std::exception& e) {
    // The unfinished round's operations are unknown: count it as one
    // failed operation.
    ++attempted;
    ++failed;
    fail(std::string("exception: ") + e.what());
  }

  // Cold set-ups (each builds its own plan) up to kSetupSamples: set-up
  // takes milliseconds on these fabrics, too little for one sample to
  // repeat.
  constexpr std::size_t kSetupSamples = 40;
  if (!traced) {
    try {
      while (setups.size() < kSetupSamples) {
        setups.push_back(nocbench::cold_setup(*w, args.seed, shards));
      }
    } catch (const std::exception& e) {
      fail(std::string("set-up exception: ") + e.what());
    }
  }

  std::printf("workload %s seed %llu shards %u rounds %zu set-ups %zu "
              "(median %.6f s) digest %016llx\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed), shards,
              plain.size() + rounds_traced.size(), setups.size(),
              quantile(setups, 0.5), static_cast<unsigned long long>(first_digest));
  for (const std::string& p : problems) std::printf("problem: %s\n", p.c_str());

  std::vector<Metric> metrics;
  if (!traced) {
    if (plain.empty()) correct = false;
    // Set-up and host speed are the run's fastest set-up and round:
    // interference from the shared host only ever slows them down, and
    // medians moved by up to 26% between runs where the fastest moved
    // far less (README.md, "Reference figures").
    metrics.push_back({"setup_s", quantile(setups, 0.0), "s"});
    std::vector<double> speeds;
    std::vector<double> walls;
    for (const RoundResult& r : plain) {
      speeds.push_back(per(r.window_ns, r.window_s));
      walls.push_back(r.wall_s);
    }
    metrics.push_back({"sim_ns_per_s", quantile(speeds, 1.0), "ns/s"});
    metrics.push_back({"wall_s", quantile(walls, 0.0), "s"});
    metrics.push_back({"instr_per_sim_ns", median_of(plain, [](const RoundResult& r) {
                         return per(static_cast<double>(r.window_instructions),
                                    r.window_ns);
                       }), "instructions/ns"});
    metrics.push_back({"peak_rss_mb", peak_rss, "MB"});
  } else {
    if (plain.empty() || rounds_traced.empty()) correct = false;
    const double overhead =
        per(median_of(rounds_traced, [](const RoundResult& r) { return r.wall_s; }),
            median_of(plain, [](const RoundResult& r) { return r.wall_s; }));
    metrics = layer_metrics(rounds_traced, sharded_round, overhead);
    std::printf("%-32s %14s %s\n", "per-layer metric", "value", "unit");
    for (const Metric& m : metrics) {
      std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    print_span_table(tracer);
    if (!args.trace_out.empty()) {
      std::ofstream f(args.trace_out);
      f << tracer.chrome_json();
      f.close();
      if (!f) {
        fail("cannot write " + args.trace_out);
      } else {
        std::printf("trace written to %s (%zu spans)\n", args.trace_out.c_str(),
                    tracer.spans().size());
      }
    }
  }

  std::string js = "{\"correct\": ";
  js += correct ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(attempted);
  js += ", \"failed\": " + std::to_string(failed);
  js += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    js += buf;
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  return 0;
}
