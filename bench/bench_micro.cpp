// Micro-benchmarks (google-benchmark) for the simulation substrate and the
// projection pipeline — the performance properties that make the whole
// reproduction tractable on one core.
#include <benchmark/benchmark.h>

#include "core/ga.h"
#include "core/ga_eval.h"
#include "core/projector.h"
#include "core/ranking.h"
#include "experiments/lab.h"
#include "imb/suite.h"
#include "machine/machine.h"
#include "mpi/world.h"
#include "nas/nas_app.h"
#include "nas/zones.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "service/artifact_cache.h"
#include "spec/suite.h"
#include "support/interp.h"
#include "sweep/runner.h"
#include "sweep/sweep.h"
#include "support/parallel.h"
#include "workload/compute_model.h"

namespace {

using namespace swapp;

/// SPEC-style suite data on the base machine and its index, shared by the
/// GA benchmarks and built once, outside every timed loop.  The base machine
/// doubles as the index's target; the GA never reads target runtimes.
struct GaSuite {
  core::SpecData data;
  core::SpecIndex index;
};

const GaSuite& ga_suite() {
  static const GaSuite* suite = [] {
    auto* out = new GaSuite;
    const machine::Machine base = machine::make_power5_hydra();
    for (const spec::BenchmarkRun& run :
         spec::run_suite(base, machine::SmtMode::kSingleThread)) {
      out->data.names.push_back(run.name);
      out->data.base_counters_st.emplace(run.name, run.counters);
      out->data.base_runtime.emplace(run.name, run.runtime);
    }
    for (const spec::BenchmarkRun& run :
         spec::run_suite(base, machine::SmtMode::kSmt)) {
      out->data.base_counters_smt.emplace(run.name, run.counters);
    }
    out->data.target_runtime[base.name] = out->data.base_runtime;
    out->index = core::SpecIndex::build(out->data, base.name);
    return out;
  }();
  return *suite;
}

// Arg = resumes dispatched per run: 16 processes, each advancing Arg/16
// times, so the queue holds 16 events at a time as it does for a small World.
void BM_EngineEventDispatch(benchmark::State& state) {
  constexpr int kProcesses = 16;
  const int steps = static_cast<int>(state.range(0)) / kProcesses;
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < kProcesses; ++i) {
      engine.spawn("p" + std::to_string(i), [steps](sim::Process& p) {
        for (int k = 0; k < steps; ++k) p.advance(1e-6);
      });
    }
    engine.run();
    benchmark::DoNotOptimize(engine.now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEventDispatch)->Arg(1 << 10)->Arg(1 << 14);

// One whole IMB database for the base machine on one thread: the per-database
// cost that perfbench's imb.measure_s / imb.databases reports on the cold path.
void BM_ImbDatabase(benchmark::State& state) {
  const machine::Machine m = machine::make_power5_hydra();
  set_thread_count(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(imb::measure_database(m).tables.size());
  }
  set_thread_count(0);
}
BENCHMARK(BM_ImbDatabase)->Unit(benchmark::kMillisecond);

void BM_FiberSwitch(benchmark::State& state) {
  sim::Fiber fiber([] {
    while (true) sim::Fiber::yield();
  });
  for (auto _ : state) fiber.resume();
}
BENCHMARK(BM_FiberSwitch);

void BM_ComputeModelEvaluate(benchmark::State& state) {
  const machine::Machine m = machine::make_power5_hydra();
  const workload::Kernel& k = spec::benchmark_by_name("bwaves").kernel;
  const workload::ComputeContext ctx{.active_cores_per_node = 16,
                                     .smt = machine::SmtMode::kSingleThread};
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::evaluate(k, 1e6, m, ctx).seconds);
  }
}
BENCHMARK(BM_ComputeModelEvaluate);

void BM_MpiPingPongSimulation(benchmark::State& state) {
  const machine::Machine m = machine::make_power5_hydra();
  for (auto _ : state) {
    mpi::World world(m, 2);
    world.run([](mpi::RankCtx& ctx) {
      for (int i = 0; i < 100; ++i) {
        if (ctx.rank() == 0) {
          ctx.send(1, 1024);
          ctx.recv(1, 1024);
        } else {
          ctx.recv(0, 1024);
          ctx.send(0, 1024);
        }
      }
    });
    benchmark::DoNotOptimize(world.wall_time());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_MpiPingPongSimulation);

void BM_CollectiveSimulation(benchmark::State& state) {
  const machine::Machine m = machine::make_power5_hydra();
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::World world(m, ranks);
    world.run([](mpi::RankCtx& ctx) {
      for (int i = 0; i < 10; ++i) ctx.allreduce(4096);
    });
    benchmark::DoNotOptimize(world.wall_time());
  }
}
BENCHMARK(BM_CollectiveSimulation)->Arg(16)->Arg(128);

void BM_ZoneDecomposition(benchmark::State& state) {
  for (auto _ : state) {
    const nas::Decomposition d(nas::Benchmark::kBT, nas::ProblemClass::kD,
                               static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(d.imbalance());
  }
}
BENCHMARK(BM_ZoneDecomposition)->Arg(16)->Arg(128);

void BM_LogLogTableLookup(benchmark::State& state) {
  CoreSizeTable table;
  for (const int c : {16, 32, 64, 128}) {
    for (const double b : {64.0, 512.0, 4096.0, 32768.0, 262144.0}) {
      table.insert(c, b, 1e-6 * b / 64.0 * c);
    }
  }
  double bytes = 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(48, bytes));
    bytes = bytes < 2e5 ? bytes * 1.1 : 100.0;
  }
}
BENCHMARK(BM_LogLogTableLookup);

void BM_GaSurrogateSearch(benchmark::State& state) {
  const machine::Machine base = machine::make_power5_hydra();
  const GaSuite& suite = ga_suite();
  const machine::PmuCounters app = suite.data.base_counters_st.at("zeusmp");
  const machine::PmuCounters app_smt =
      suite.data.base_counters_smt.at("zeusmp");
  const core::GroupWeights weights = core::base_group_weights(app, base);
  core::GaOptions options;
  options.restarts = 1;
  options.generations = 80;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::find_surrogate(app, app_smt, weights, suite.index, 100.0,
                             options)
            .fitness);
  }
}
BENCHMARK(BM_GaSurrogateSearch);

// The Eq. 2 surrogate search at production settings (default GaOptions:
// 5 restarts × 240 generations), serial vs. pooled.  Arg = thread count
// (0 = auto: SWAPP_THREADS / hardware concurrency).
void BM_FindSurrogate(benchmark::State& state) {
  const machine::Machine base = machine::make_power5_hydra();
  const GaSuite& suite = ga_suite();
  const machine::PmuCounters app = suite.data.base_counters_st.at("zeusmp");
  const machine::PmuCounters app_smt =
      suite.data.base_counters_smt.at("zeusmp");
  const core::GroupWeights weights = core::base_group_weights(app, base);
  const core::GaOptions options;
  set_thread_count(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::find_surrogate(app, app_smt, weights, suite.index, 100.0,
                             options)
            .fitness);
  }
  set_thread_count(0);
}
BENCHMARK(BM_FindSurrogate)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// The max_terms genome every GA micro-benchmark perturbs (suite-strided,
/// scaled so base runtimes sum near the target compute time).
std::vector<double> ga_bench_genome(const core::SpecIndex& index) {
  std::vector<double> genome(index.size(), 0.0);
  const std::size_t stride = std::max<std::size_t>(1, genome.size() / 6);
  int terms = 0;
  for (std::size_t k = 0; k < genome.size() && terms < 6;
       k += stride, ++terms) {
    genome[k] = 100.0 / (6.0 * index.base_time[k]);
  }
  return genome;
}

// The GA objective on a suite-sized genome, one kernel per Arg (the
// core::GaKernel enum): 0 = three-pass reference, 2 = the engine at the
// width the host selects.  256 evaluations per iteration, matching the
// per-generation re-evaluation load.
void BM_GaFitnessKernel(benchmark::State& state) {
  const machine::Machine base = machine::make_power5_hydra();
  const GaSuite& suite = ga_suite();
  const machine::PmuCounters app = suite.data.base_counters_st.at("zeusmp");
  const machine::PmuCounters app_smt =
      suite.data.base_counters_smt.at("zeusmp");
  const core::GroupWeights weights = core::base_group_weights(app, base);
  const std::vector<double> genome = ga_bench_genome(suite.index);
  const auto kernel = static_cast<core::GaKernel>(state.range(0));
  constexpr int kEvals = 256;
  // Problem setup (signature conversion, pair rows, scales) happens once,
  // outside the timed region: the loop measures the kernels themselves.
  const core::GaFitnessProber prober(app, app_smt, weights, suite.index,
                                     100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prober.run(genome, kEvals, kernel));
  }
  state.SetItemsProcessed(state.iterations() * kEvals);
}
BENCHMARK(BM_GaFitnessKernel)->Arg(0)->Arg(2);

// A full figure through the Lab (LU on POWER6: ground-truth runs +
// projections per row), serial vs. pooled.  Arg = thread count (0 = auto).
// The Lab is rebuilt each iteration so every row pays its full cost; the
// shared databases are built outside the timed section.
void BM_LabFigure(benchmark::State& state) {
  set_thread_count(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    experiments::Lab lab({experiments::Lab::power6_name()});
    lab.projector();
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        lab.figure(nas::Benchmark::kLU, experiments::Lab::power6_name())
            .rows.size());
  }
  set_thread_count(0);
}
BENCHMARK(BM_LabFigure)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// Projector + LU profile on reduced grids, shared by BM_ProjectMany (built
/// once, outside any timed section).
const core::Projector& batch_projector() {
  static const core::Projector* p = [] {
    const machine::Machine base = machine::make_power5_hydra();
    const machine::Machine target = machine::make_power6_575();
    const std::vector<int> counts = {8, 16, 32};
    const std::vector<Bytes> sizes = {512, 16_KiB, 256_KiB};
    auto spec = experiments::collect_spec_library(base, {target}, counts);
    auto* proj = new core::Projector(base, spec,
                                     imb::measure_database(base, counts, sizes));
    proj->add_target(target.name,
                     imb::measure_database(target, counts, sizes));
    return proj;
  }();
  return *p;
}

const core::AppBaseData& batch_lu_data() {
  static const core::AppBaseData* d = new core::AppBaseData(
      experiments::collect_base_data(
          nas::NasApp(nas::Benchmark::kLU, nas::ProblemClass::kC),
          machine::make_power5_hydra(), {4, 8, 16}, {4, 8, 16}));
  return *d;
}

// One app at three core counts sharing a surrogate search
// (surrogate_reference_cores = 16): the batched engine (Arg = 1) memoises
// the search and shares the indexed spec view, vs. the same requests issued
// as independent `project` calls (Arg = 0) — each paying its own search.
void BM_ProjectMany(benchmark::State& state) {
  const core::Projector& projector = batch_projector();
  const core::AppBaseData& lu = batch_lu_data();
  const std::string target = machine::make_power6_575().name;
  core::ProjectionOptions options;
  options.compute.surrogate_reference_cores = 16;
  std::vector<core::ProjectionRequest> requests;
  for (const int ck : {4, 8, 16}) {
    requests.push_back(core::ProjectionRequest{&lu, target, ck, options});
  }
  const bool batched = state.range(0) == 1;
  for (auto _ : state) {
    double total = 0.0;
    if (batched) {
      for (const core::ProjectionResult& r : projector.project_many(requests)) {
        total += r.total_target();
      }
    } else {
      for (const core::ProjectionRequest& r : requests) {
        total += projector.project(*r.app, r.target, r.cores, r.options)
                     .total_target();
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * requests.size());
}
BENCHMARK(BM_ProjectMany)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- Observability overhead -------------------------------------------------
// The instrumentation contract is "zero overhead when disabled": every macro
// must cost one relaxed atomic load while the switches are off.  Arg = 1
// turns the relevant switch on and measures the recording cost instead.

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::set_metrics_enabled(state.range(0) == 1);
  for (auto _ : state) {
    SWAPP_COUNT("bench.obs_counter", 1);
  }
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
}
BENCHMARK(BM_ObsCounterAdd)->Arg(0)->Arg(1);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::set_metrics_enabled(state.range(0) == 1);
  double v = 1.0;
  for (auto _ : state) {
    SWAPP_OBSERVE("bench.obs_hist", v);
    v = v < 1e6 ? v * 1.7 : 1.0;
  }
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
}
BENCHMARK(BM_ObsHistogramObserve)->Arg(0)->Arg(1);

// 1000 spans per iteration; the enabled run drains each batch so the buffer
// cost that a real trace pays (record + eventual drain) is in the number.
void BM_ObsSpan(benchmark::State& state) {
  obs::set_tracing_enabled(state.range(0) == 1);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      SWAPP_SPAN("bench.obs_span");
    }
    if (state.range(0) == 1) {
      benchmark::DoNotOptimize(obs::drain_trace().size());
    }
  }
  obs::set_tracing_enabled(false);
  obs::drain_trace();
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ObsSpan)->Arg(0)->Arg(1);

// The GA search with every switch live: spans, per-generation convergence
// counters, and metrics all recording.  Compare against BM_GaSurrogateSearch
// (same work, switches off) for the worst-case enabled overhead.
void BM_GaSurrogateSearchObsEnabled(benchmark::State& state) {
  const machine::Machine base = machine::make_power5_hydra();
  const GaSuite& suite = ga_suite();
  const machine::PmuCounters app = suite.data.base_counters_st.at("zeusmp");
  const machine::PmuCounters app_smt =
      suite.data.base_counters_smt.at("zeusmp");
  const core::GroupWeights weights = core::base_group_weights(app, base);
  core::GaOptions options;
  options.restarts = 1;
  options.generations = 80;
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::find_surrogate(app, app_smt, weights, suite.index, 100.0,
                             options)
            .fitness);
    benchmark::DoNotOptimize(obs::drain_trace().size());
  }
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
}
BENCHMARK(BM_GaSurrogateSearchObsEnabled);

// --- always-on recording ------------------------------------------------------
// The daemon keeps metrics enabled, and exact, for its whole life
// (tools/swapp_cli.cpp cmd_serve), with tracing off.  This runs the GA search
// under exactly that configuration; the BENCH_obs_live.json gate requires it
// within 2% of the metrics-disabled search (BM_GaSurrogateSearch).
void BM_GaSurrogateSearchObsAlwaysOn(benchmark::State& state) {
  const machine::Machine base = machine::make_power5_hydra();
  const GaSuite& suite = ga_suite();
  const machine::PmuCounters app = suite.data.base_counters_st.at("zeusmp");
  const machine::PmuCounters app_smt =
      suite.data.base_counters_smt.at("zeusmp");
  const core::GroupWeights weights = core::base_group_weights(app, base);
  core::GaOptions options;
  options.restarts = 1;
  options.generations = 80;
  obs::set_metrics_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::find_surrogate(app, app_smt, weights, suite.index, 100.0,
                             options)
            .fitness);
  }
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
}
BENCHMARK(BM_GaSurrogateSearchObsAlwaysOn);

void BM_ImbMeasurement(benchmark::State& state) {
  const machine::Machine m = machine::make_power5_hydra();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        imb::run_imb(m, imb::ImbBenchmark::kAllreduce, 32, 4096, 8).time);
  }
}
BENCHMARK(BM_ImbMeasurement);

// --- Sweep factoring ---------------------------------------------------------
// A five-point comm-only bandwidth sweep (LU/C at 8 tasks, reference 16).
// Arg = 1 runs it through SweepRunner, whose planner factors the points into
// one SPEC-library target, one GA search, and per-class IMB databases.
// Arg = 0 is the naive expansion the planner replaces: every point issued as
// its own single-point sweep against a fresh runner, paying its own library,
// search, and measurements.  Both paths start from empty memory-only caches
// each iteration (cold artifacts are the cost being factored) and share one
// pre-collected application profile, so the ratio isolates the planner.

void configure_sweep_runner(sweep::SweepRunner& runner) {
  const machine::Machine base = machine::make_power5_hydra();
  runner.set_spec_collector(
      [](const machine::Machine& b, const std::vector<machine::Machine>& t,
         const std::vector<int>& counts) {
        return experiments::collect_spec_library(b, t, counts);
      });
  runner.set_imb_collector([](const machine::Machine& m) {
    return imb::measure_database(m, {8, 16, 32}, {512, 16_KiB, 256_KiB});
  });
  runner.add_app("LU/C",
                 service::describe_app_inputs("LU-MZ.C", base, 1, {4, 8, 16},
                                              {4, 8, 16}),
                 [] { return batch_lu_data(); });
}

void BM_SweepFanout(benchmark::State& state) {
  (void)batch_lu_data();  // profile the app outside the timed region
  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::make_power6_575();
  sweep::SweepSpec spec;
  spec.app = "LU/C";
  spec.target = target.name;
  spec.tasks = 8;
  spec.reference = 16;
  spec.options.compute.surrogate_reference_cores = 16;
  spec.axes.push_back({"network.link_bandwidth_gbs", sweep::AxisMode::kScale,
                       {0.25, 0.5, 1.0, 2.0, 4.0}});
  const bool factored = state.range(0) == 1;
  for (auto _ : state) {
    double total = 0.0;
    if (factored) {
      sweep::SweepRunner runner(base, {target}, {});
      configure_sweep_runner(runner);
      for (const core::ProjectionResult& r : runner.run(spec).results) {
        total += r.total_target();
      }
    } else {
      for (const double scale : spec.axes[0].values) {
        sweep::SweepSpec one = spec;
        one.axes[0].values = {scale};
        sweep::SweepRunner runner(base, {target}, {});
        configure_sweep_runner(runner);
        total += runner.run(one).results[0].total_target();
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_SweepFanout)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
