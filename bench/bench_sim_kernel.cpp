// E14 — substrate performance: google-benchmark microbenchmarks of the
// event kernel, handshake channels and a full router hop. These bound
// how much simulated traffic the reproduction can run per wall second.
//
// Every kernel benchmark runs twice: once on the production calendar-
// queue kernel (sim::Simulator) and once on the reference priority-queue
// kernel (sim::LegacySimulator) it replaced, so the events/sec ratio of
// the two is tracked release over release (BENCH_sim_kernel.json).
#include <benchmark/benchmark.h>

#include <functional>

#include "noc/network/connection_manager.hpp"
#include "noc/network/network.hpp"
#include "sim/channel.hpp"
#include "sim/context.hpp"
#include "sim/legacy_kernel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace mango;
using namespace mango::noc;

namespace {

// Identical workload shapes run on both kernels, so the reported ratio is
// pure kernel overhead (queue discipline + callback materialization).

template <typename Kernel>
void event_dispatch(benchmark::State& state) {
  for (auto _ : state) {
    Kernel simulator;
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (std::uint64_t i = 0; i < n; ++i) {
      simulator.at(i, [] {});
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_EventDispatch(benchmark::State& state) {
  event_dispatch<sim::Simulator>(state);
}
BENCHMARK(BM_EventDispatch)->Arg(1000)->Arg(100000);

void BM_LegacyEventDispatch(benchmark::State& state) {
  event_dispatch<sim::LegacySimulator>(state);
}
BENCHMARK(BM_LegacyEventDispatch)->Arg(1000)->Arg(100000);

/// Self-scheduling chain: the pattern every clockless stage uses. The
/// 24-byte functor exceeds std::function's 16-byte SBO (so the legacy
/// kernel heap-allocates per event) and fits the calendar-queue kernel's
/// inline capture budget — exactly the per-flit situation in the model.
template <typename Kernel>
struct ChainFn {
  Kernel* simulator;
  std::uint64_t* count;
  std::uint64_t limit;
  void operator()() const {
    if (++*count < limit) simulator->after(100, *this);
  }
};

template <typename Kernel>
void event_chain(benchmark::State& state) {
  for (auto _ : state) {
    Kernel simulator;
    std::uint64_t count = 0;
    const auto limit = static_cast<std::uint64_t>(state.range(0));
    simulator.after(100, ChainFn<Kernel>{&simulator, &count, limit});
    simulator.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_EventChain(benchmark::State& state) {
  event_chain<sim::Simulator>(state);
}
BENCHMARK(BM_EventChain)->Arg(100000);

void BM_LegacyEventChain(benchmark::State& state) {
  event_chain<sim::LegacySimulator>(state);
}
BENCHMARK(BM_LegacyEventChain)->Arg(100000);

/// Typed-record chains: the dispatch path of every per-flit event in the
/// model. range(0) chains stay in flight; each dispatch reschedules its
/// own record after the next stage delay of the model's default
/// worst-case corner (noc::StageDelays, 60..1942 ps), cycling through the
/// table so the bench times the kernel, not a random draw.
constexpr sim::Time kStageDelayMix[] = {1942, 380, 450, 150, 180, 200, 150,
                                        120,  500, 100, 60,  700, 400};
constexpr std::size_t kStageDelayCount =
    sizeof kStageDelayMix / sizeof kStageDelayMix[0];

struct TypedChains {
  sim::Simulator* simulator;
  std::uint64_t left;
};

void typed_chain_step(sim::TypedEvent& ev) {
  auto* chains = static_cast<TypedChains*>(ev.p0);
  if (chains->left == 0) return;
  --chains->left;
  ev.d = (ev.d + 1) % kStageDelayCount;
  chains->simulator->after_typed(kStageDelayMix[ev.d], ev);
}

constexpr std::uint64_t kTypedChainEvents = 200000;

void BM_TypedEventChain(benchmark::State& state) {
  const auto in_flight = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    simulator.set_typed_dispatcher(&typed_chain_step);
    TypedChains chains{&simulator, kTypedChainEvents - in_flight};
    for (std::uint32_t i = 0; i < in_flight; ++i) {
      sim::TypedEvent ev{};
      ev.op = 1;
      ev.d = i % kStageDelayCount;
      ev.p0 = &chains;
      simulator.at_typed(i, ev);
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * kTypedChainEvents);
}
BENCHMARK(BM_TypedEventChain)->Arg(100)->Arg(1000)->Arg(5000);

/// Interleaved near/far horizon traffic: stresses the calendar queue's
/// overflow heap and wheel migration (timeouts and packet interarrivals
/// mixed with handshake-scale delays, 64 concurrent event chains).
template <typename Kernel>
void event_mixed_horizon(benchmark::State& state) {
  for (auto _ : state) {
    Kernel simulator;
    sim::Rng rng(7);
    std::uint64_t count = 0;
    const auto limit = static_cast<std::uint64_t>(state.range(0));
    std::function<void()> self = [&simulator, &rng, &count, limit, &self] {
      if (++count >= limit) return;
      const bool far = rng.next_below(8) == 0;
      simulator.after(far ? 1000000 + rng.next_below(5000000)
                          : 60 + rng.next_below(2000),
                      self);
    };
    for (int i = 0; i < 64; ++i) {
      simulator.after(rng.next_below(2000), self);
    }
    simulator.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_EventMixedHorizon(benchmark::State& state) {
  event_mixed_horizon<sim::Simulator>(state);
}
BENCHMARK(BM_EventMixedHorizon)->Arg(100000);

void BM_LegacyEventMixedHorizon(benchmark::State& state) {
  event_mixed_horizon<sim::LegacySimulator>(state);
}
BENCHMARK(BM_LegacyEventMixedHorizon)->Arg(100000);

void BM_ChannelHandshakes(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    sim::Channel<int> ch(simulator, sim::ChannelTiming{400, 250});
    std::uint64_t received = 0;
    const auto limit = static_cast<std::uint64_t>(state.range(0));
    ch.set_receiver([&](int&&) {
      ++received;
      ch.ack();
    });
    ch.set_on_ready([&] {
      if (received < limit) ch.send(static_cast<int>(received));
    });
    ch.send(0);
    simulator.run();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChannelHandshakes)->Arg(50000);

void BM_GsFlitHop(benchmark::State& state) {
  // Full-stack cost of one GS flit across one router hop.
  for (auto _ : state) {
    state.PauseTiming();
    sim::SimContext ctx;
    MeshConfig mesh{2, 1, RouterConfig{}, 1};
    Network net(ctx, mesh);
    ConnectionManager mgr(net, NodeId{0, 0});
    const Connection& c = mgr.open_direct({0, 0}, {1, 0});
    std::uint64_t delivered = 0;
    // Passive measurement sink (the attach_hub style): the NA folds the
    // final wire hop instead of scheduling a handler event per flit.
    net.na({1, 0}).set_gs_handler_timed(
        [&](LocalIfaceIdx, Flit&&, sim::Time) { ++delivered; });
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (std::uint64_t i = 0; i < n; ++i) {
      net.na({0, 0}).gs_send(c.src_iface, Flit{});
    }
    state.ResumeTiming();
    ctx.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GsFlitHop)->Arg(10000);

void BM_RngDraws(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(1000));
  }
}
BENCHMARK(BM_RngDraws);

}  // namespace

BENCHMARK_MAIN();
