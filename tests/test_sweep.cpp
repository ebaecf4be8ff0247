// Tests for the sweep subsystem: machine overrides feeding spec expansion,
// the delta-aware planner's equivalence classes (including a randomised
// partition property), the runner's artifact sharing (one GA search for
// comm-only sweeps, warm reruns with zero simulation), byte-identity of an
// identity sweep point against a direct projection, and the result-document
// round trip.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/projector.h"
#include "experiments/lab.h"
#include "imb/suite.h"
#include "machine/machine.h"
#include "machine/overrides.h"
#include "nas/nas_app.h"
#include "service/artifact_cache.h"
#include "support/error.h"
#include "sweep/planner.h"
#include "sweep/result.h"
#include "sweep/runner.h"
#include "sweep/sweep.h"

namespace swapp {
namespace {

using experiments::collect_base_data;
using experiments::collect_spec_library;

const std::vector<int> kCounts = {8, 16, 32};
const std::vector<Bytes> kSizes = {512, 16_KiB, 256_KiB};

sweep::SweepSpec lu_spec(int tasks, int reference) {
  sweep::SweepSpec spec;
  spec.app = "LU/C";
  spec.target = machine::make_power6_575().name;
  spec.tasks = tasks;
  spec.threads = 1;
  spec.reference = reference;
  spec.options.compute.surrogate_reference_cores = reference;
  return spec;
}

// --- spec document ----------------------------------------------------------

TEST(SweepSpecDoc, RoundTripsThroughTheDocument) {
  sweep::SweepSpec spec = lu_spec(8, 16);
  spec.axes.push_back({"network.link_bandwidth_gbs", sweep::AxisMode::kScale,
                       {0.5, 1.0, 2.0}});
  spec.axes.push_back({"cache.L2.capacity_kib", sweep::AxisMode::kList,
                       {2048.0, 4096.0}});
  std::ostringstream os;
  sweep::write_sweep_spec(os, spec);
  std::istringstream is(os.str());
  const sweep::SweepSpec back = sweep::read_sweep_spec(is);
  EXPECT_EQ(back.app, spec.app);
  EXPECT_EQ(back.target, spec.target);
  EXPECT_EQ(back.tasks, spec.tasks);
  EXPECT_EQ(back.threads, spec.threads);
  EXPECT_EQ(back.reference, spec.reference);
  EXPECT_EQ(back.options.compute.surrogate_reference_cores, 16);
  ASSERT_EQ(back.axes.size(), 2u);
  EXPECT_EQ(back.axes[0].field, "network.link_bandwidth_gbs");
  EXPECT_EQ(back.axes[0].mode, sweep::AxisMode::kScale);
  EXPECT_EQ(back.axes[0].values, spec.axes[0].values);
  EXPECT_EQ(back.axes[1].mode, sweep::AxisMode::kList);
  EXPECT_EQ(back.axes[1].values, spec.axes[1].values);
  EXPECT_EQ(sweep::point_count(back), 6u);
}

TEST(SweepSpecDoc, RangeAxisResolvesToAnInclusiveGrid) {
  std::istringstream is(
      "#swapp \"swapp-sweep\" v1\n"
      "base \"LU/C\" \"IBM POWER6 575\" 8\n"
      "axis \"memory.node_bandwidth_gbs\" range 10 30 3\n");
  const sweep::SweepSpec spec = sweep::read_sweep_spec(is);
  EXPECT_EQ(spec.threads, 1);
  EXPECT_EQ(spec.reference, 0);
  ASSERT_EQ(spec.axes.size(), 1u);
  // Ranges become explicit lists at parse time, so re-encoding is lossless.
  EXPECT_EQ(spec.axes[0].mode, sweep::AxisMode::kList);
  EXPECT_EQ(spec.axes[0].values, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(SweepSpecDoc, RejectsMalformedDocuments) {
  const auto reject = [](const std::string& body) {
    std::istringstream is("#swapp \"swapp-sweep\" v1\n" + body);
    EXPECT_THROW(sweep::read_sweep_spec(is), InvalidArgument) << body;
  };
  reject("");                                           // no base row
  reject("base \"LU/C\" \"M\"\n");                      // short base row
  reject("base \"LU/C\" \"M\" 0\n");                    // tasks < 1
  reject("base \"LU/C\" \"M\" 8 0\n");                  // threads < 1
  reject("base \"LU/C\" \"M\" 8 1 -1\n");               // reference < 0
  reject("base \"LU/C\" \"M\" 8\nbase \"LU/C\" \"M\" 8\n");
  reject("base \"LU/C\" \"M\" 8\naxis \"no.such.field\" list 1\n");
  reject("base \"LU/C\" \"M\" 8\naxis \"os_jitter\" wiggle 1\n");
  reject("base \"LU/C\" \"M\" 8\naxis \"os_jitter\" list\n");
  reject("base \"LU/C\" \"M\" 8\naxis \"os_jitter\" range 0 1\n");
  reject("base \"LU/C\" \"M\" 8\naxis \"os_jitter\" range 0 1 0\n");
  reject("base \"LU/C\" \"M\" 8\n"
         "axis \"os_jitter\" list 0.01\naxis \"os_jitter\" list 0.02\n");
  reject("base \"LU/C\" \"M\" 8\nfrobnicate 1\n");      // unknown record
}

// --- expansion --------------------------------------------------------------

TEST(SweepExpansion, EnumeratesRowMajorWithTheLastAxisFastest) {
  const machine::Machine target = machine::make_power6_575();
  sweep::SweepSpec spec = lu_spec(8, 0);
  spec.axes.push_back(
      {"network.link_bandwidth_gbs", sweep::AxisMode::kScale, {1.0, 2.0}});
  spec.axes.push_back(
      {"mpi.send_overhead_us", sweep::AxisMode::kScale, {1.0, 2.0, 4.0}});
  const std::vector<sweep::SweepPoint> points = sweep::expand(spec, target);
  ASSERT_EQ(points.size(), 6u);
  const double bw = machine::read_field(target, "network.link_bandwidth_gbs");
  const double us = machine::read_field(target, "mpi.send_overhead_us");
  const double bw_scale[] = {1, 1, 1, 2, 2, 2};
  const double us_scale[] = {1, 2, 4, 1, 2, 4};
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    ASSERT_EQ(points[i].coords.size(), 2u);
    EXPECT_EQ(points[i].coords[0].field, "network.link_bandwidth_gbs");
    EXPECT_DOUBLE_EQ(points[i].coords[0].value, bw * bw_scale[i]);
    EXPECT_EQ(points[i].coords[1].field, "mpi.send_overhead_us");
    EXPECT_DOUBLE_EQ(points[i].coords[1].value, us * us_scale[i]);
    EXPECT_EQ(points[i].tasks, 8);
  }
}

TEST(SweepExpansion, IdentityPointsKeepTheNameVariantsGetFingerprints) {
  const machine::Machine target = machine::make_power6_575();
  sweep::SweepSpec spec = lu_spec(8, 0);
  spec.axes.push_back(
      {"network.link_bandwidth_gbs", sweep::AxisMode::kScale, {0.5, 1.0, 2.0}});
  const std::vector<sweep::SweepPoint> points = sweep::expand(spec, target);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_FALSE(points[0].identity);
  EXPECT_TRUE(points[1].identity);  // scale 1.0 resolves to the current value
  EXPECT_FALSE(points[2].identity);
  EXPECT_EQ(points[1].machine.name, target.name);
  // Variant names carry the 16-hex configuration fingerprint, and distinct
  // configurations get distinct names.
  EXPECT_EQ(points[0].machine.name.rfind(target.name + "~", 0), 0u);
  EXPECT_EQ(points[0].machine.name.size(), target.name.size() + 1 + 16);
  EXPECT_NE(points[0].machine.name, points[2].machine.name);
}

TEST(SweepExpansion, TasksAxisChangesTheTaskCountNotTheMachine) {
  const machine::Machine target = machine::make_power6_575();
  sweep::SweepSpec spec = lu_spec(8, 16);
  spec.axes.push_back({sweep::kTasksAxis, sweep::AxisMode::kList, {4.0, 16.0}});
  const std::vector<sweep::SweepPoint> points = sweep::expand(spec, target);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].tasks, 4);
  EXPECT_EQ(points[1].tasks, 16);
  for (const sweep::SweepPoint& p : points) {
    EXPECT_TRUE(p.identity);
    EXPECT_EQ(p.machine.name, target.name);
  }
  std::istringstream bad_tasks(
      "#swapp \"swapp-sweep\" v1\n"
      "base \"LU/C\" \"IBM POWER6 575\" 8\n"
      "axis \"tasks\" scale 0.01\n");  // resolves below one task
  const sweep::SweepSpec below = sweep::read_sweep_spec(bad_tasks);
  EXPECT_THROW(sweep::expand(below, target), InvalidArgument);
}

// --- planner ----------------------------------------------------------------

TEST(SweepPlanner, CommOnlySweepSharesOneSpecTargetAndOneSearch) {
  const machine::Machine target = machine::make_power6_575();
  sweep::SweepSpec spec = lu_spec(8, 16);
  spec.axes.push_back(
      {"network.link_bandwidth_gbs", sweep::AxisMode::kScale, {0.5, 1.0, 2.0}});
  const std::vector<sweep::SweepPoint> points = sweep::expand(spec, target);
  const sweep::SweepPlan plan = sweep::plan_sweep(spec, target, points);
  EXPECT_EQ(plan.points, 3u);
  ASSERT_EQ(plan.compute_classes.size(), 1u);
  EXPECT_TRUE(plan.compute_classes[0].matches_original);
  ASSERT_EQ(plan.searches.size(), 1u);
  EXPECT_EQ(plan.searches[0].search_ck, 16);
  ASSERT_EQ(plan.comm_classes.size(), 3u);
  EXPECT_FALSE(plan.comm_classes[0].matches_original);
  EXPECT_TRUE(plan.comm_classes[1].matches_original);
  // Demands: the request's 8 tasks and the reference's 16, ascending.
  EXPECT_EQ(plan.task_counts, (std::vector<int>{8, 16}));
  EXPECT_EQ(plan.naive_spec_targets, 3u);
  EXPECT_EQ(plan.naive_searches, 3u);
  EXPECT_EQ(plan.naive_imb_databases, 3u);
  EXPECT_EQ(plan.describe(),
            "3 points -> 1 spec target, 1 GA search, 3 imb databases "
            "(naive: 3/3/3)");
}

TEST(SweepPlanner, ComputeOnlySweepSharesOneImbDatabase) {
  const machine::Machine target = machine::make_power6_575();
  sweep::SweepSpec spec = lu_spec(8, 0);
  spec.axes.push_back(
      {"processor.frequency_ghz", sweep::AxisMode::kScale, {0.5, 1.0, 2.0}});
  const std::vector<sweep::SweepPoint> points = sweep::expand(spec, target);
  const sweep::SweepPlan plan = sweep::plan_sweep(spec, target, points);
  EXPECT_EQ(plan.compute_classes.size(), 3u);
  EXPECT_EQ(plan.searches.size(), 3u);  // one per compute class at ck=8
  ASSERT_EQ(plan.comm_classes.size(), 1u);
  EXPECT_TRUE(plan.comm_classes[0].matches_original);
  EXPECT_EQ(plan.task_counts, (std::vector<int>{8}));  // reference 0: no pin
}

TEST(SweepPlanner, TaskAxisWithReferenceRidesOneSearch) {
  const machine::Machine target = machine::make_power6_575();
  sweep::SweepSpec spec = lu_spec(8, 16);
  spec.axes.push_back(
      {sweep::kTasksAxis, sweep::AxisMode::kList, {4.0, 8.0, 16.0}});
  const std::vector<sweep::SweepPoint> points = sweep::expand(spec, target);
  const sweep::SweepPlan plan = sweep::plan_sweep(spec, target, points);
  // One compute configuration, one pinned search: every task count rescales
  // off the same surrogate.  Without a reference it is one search per count.
  EXPECT_EQ(plan.compute_classes.size(), 1u);
  ASSERT_EQ(plan.searches.size(), 1u);
  EXPECT_EQ(plan.searches[0].search_ck, 16);
  EXPECT_EQ(plan.task_counts, (std::vector<int>{4, 8, 16}));

  sweep::SweepSpec unpinned = spec;
  unpinned.reference = 0;
  unpinned.options.compute.surrogate_reference_cores = 0;
  const std::vector<sweep::SweepPoint> points2 =
      sweep::expand(unpinned, target);
  const sweep::SweepPlan plan2 = sweep::plan_sweep(unpinned, target, points2);
  EXPECT_EQ(plan2.searches.size(), 3u);
}

TEST(SweepPlannerProperty, ClassesPartitionPointsBySideConfiguration) {
  // Randomised sweeps over the override registry: however the axes mix
  // compute- and comm-side fields, the planner's classes must partition the
  // points exactly by canonical side description — it never merges points
  // whose compute-side (or comm-side) configurations differ, and never
  // splits points whose configurations agree.
  const machine::Machine target = machine::make_power6_575();
  std::vector<machine::OverrideField> usable;
  for (const machine::OverrideField& f : machine::override_fields()) {
    try {
      machine::read_field(target, f.name);
      usable.push_back(f);
    } catch (const InvalidArgument&) {
      // The target lacks this knob (e.g. an absent cache level); a sweep
      // over it would refuse at expansion, so skip it here.
    }
  }
  ASSERT_GE(usable.size(), 8u);

  std::mt19937 rng(0x5eedc0de);
  int checked = 0;
  for (int iteration = 0; iteration < 40 && checked < 25; ++iteration) {
    sweep::SweepSpec spec = lu_spec(8, iteration % 2 == 0 ? 16 : 0);
    std::uniform_int_distribution<std::size_t> pick(0, usable.size() - 1);
    // Gentle multipliers: wild values trip model preconditions (a cache
    // hierarchy must stay ordered) before the planner ever sees them, and
    // the partition property only needs distinct configurations.
    std::uniform_real_distribution<double> scale(0.8, 1.25);
    std::set<std::size_t> chosen;
    while (chosen.size() < 2) chosen.insert(pick(rng));
    for (const std::size_t f : chosen) {
      spec.axes.push_back({usable[f].name, sweep::AxisMode::kScale,
                           {scale(rng), scale(rng)}});
    }
    if (iteration % 3 == 0) {
      spec.axes.push_back(
          {sweep::kTasksAxis, sweep::AxisMode::kList, {4.0, 8.0}});
    }

    std::vector<sweep::SweepPoint> points;
    try {
      points = sweep::expand(spec, target);
    } catch (const Error&) {
      continue;  // the draw violated a model precondition; redraw
    }
    ++checked;
    const sweep::SweepPlan plan = sweep::plan_sweep(spec, target, points);
    ASSERT_EQ(plan.comm_class_of.size(), points.size());
    ASSERT_EQ(plan.search_of.size(), points.size());

    const auto check_partition = [&](const std::vector<sweep::SweepPlan::Class>&
                                         classes,
                                     const auto& describe) {
      std::set<std::size_t> seen;
      for (const sweep::SweepPlan::Class& c : classes) {
        ASSERT_FALSE(c.members.empty());
        for (const std::size_t member : c.members) {
          EXPECT_TRUE(seen.insert(member).second);  // each point exactly once
          // Never merges differing configurations:
          EXPECT_EQ(describe(points[member].machine),
                    describe(points[c.rep].machine));
        }
      }
      EXPECT_EQ(seen.size(), points.size());
      // Never splits equal configurations:
      std::set<std::string> keys;
      for (const sweep::SweepPlan::Class& c : classes) {
        EXPECT_TRUE(keys.insert(describe(points[c.rep].machine)).second);
      }
    };
    check_partition(plan.compute_classes, [](const machine::Machine& m) {
      return machine::describe_compute_side(m);
    });
    check_partition(plan.comm_classes, [](const machine::Machine& m) {
      return machine::describe_comm_side(m);
    });

    // Searches subdivide compute classes by search count and cover every
    // point; members of one search always share a compute configuration.
    std::set<std::size_t> covered;
    for (std::size_t s = 0; s < plan.searches.size(); ++s) {
      const sweep::SweepPlan::Search& search = plan.searches[s];
      const sweep::SweepPlan::Class& cc =
          plan.compute_classes[search.compute_class];
      for (const std::size_t member : search.members) {
        EXPECT_TRUE(covered.insert(member).second);
        EXPECT_EQ(plan.search_of[member], s);
        EXPECT_EQ(machine::describe_compute_side(points[member].machine),
                  machine::describe_compute_side(points[cc.rep].machine));
        const int expected_ck =
            spec.reference > 0 ? spec.reference : points[member].tasks;
        EXPECT_EQ(search.search_ck, expected_ck);
      }
    }
    EXPECT_EQ(covered.size(), points.size());
  }
  EXPECT_GE(checked, 20);  // the redraw escape hatch must stay rare
}

// --- runner -----------------------------------------------------------------

/// Cheap collectors (small grids, LU/C only) mirroring the service tests.
void configure_runner(sweep::SweepRunner& runner) {
  runner.set_spec_collector(
      [](const machine::Machine& b, const std::vector<machine::Machine>& t,
         const std::vector<int>& counts) {
        return collect_spec_library(b, t, counts);
      });
  runner.set_imb_collector([](const machine::Machine& m) {
    return imb::measure_database(m, kCounts, kSizes);
  });
  const machine::Machine base = machine::make_power5_hydra();
  runner.add_app("LU/C",
                 service::describe_app_inputs("LU-MZ.C", base, 1, {4, 8, 16},
                                              {4, 8, 16}),
                 [base] {
                   return collect_base_data(
                       nas::NasApp(nas::Benchmark::kLU, nas::ProblemClass::kC),
                       base, {4, 8, 16}, {4, 8, 16});
                 });
}

/// Bitwise equality (operator== on doubles): the sweep promises
/// byte-identity with the direct engine, not closeness.
void expect_identical(const core::ProjectionResult& a,
                      const core::ProjectionResult& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.compute.target_compute, b.compute.target_compute);
  EXPECT_EQ(a.compute.base_compute, b.compute.base_compute);
  EXPECT_EQ(a.compute.gamma, b.compute.gamma);
  EXPECT_EQ(a.comm.base_total(), b.comm.base_total());
  EXPECT_EQ(a.comm.target_total(), b.comm.target_total());
  EXPECT_EQ(a.total_target(), b.total_target());
}

TEST(SweepRunner, IdentityPointIsByteIdenticalToADirectProjection) {
  // A sweep whose only point resolves to the unmodified target must
  // reproduce `swapp project` exactly: same surrogate search, same
  // reference rescale, same communication pipeline.
  sweep::SweepSpec spec = lu_spec(8, 16);
  spec.axes.push_back(
      {"network.link_bandwidth_gbs", sweep::AxisMode::kScale, {1.0}});
  sweep::SweepRunner runner(machine::make_power5_hydra(),
                            {machine::make_power6_575()}, {});
  configure_runner(runner);
  const sweep::SweepRunner::SweepReport report = runner.run(spec);
  ASSERT_EQ(report.points.size(), 1u);
  ASSERT_TRUE(report.points[0].identity);
  EXPECT_EQ(report.results[0].target, machine::make_power6_575().name);

  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::make_power6_575();
  core::Projector projector(
      base, collect_spec_library(base, {target}, report.plan.task_counts),
      imb::measure_database(base, kCounts, kSizes));
  projector.add_target(target.name,
                       imb::measure_database(target, kCounts, kSizes));
  const core::AppBaseData app = collect_base_data(
      nas::NasApp(nas::Benchmark::kLU, nas::ProblemClass::kC), base,
      {4, 8, 16}, {4, 8, 16});
  expect_identical(report.results[0],
                   projector.project(app, target.name, 8, spec.options));
}

TEST(SweepRunner, CommOnlySweepRunsExactlyOneSearch) {
  sweep::SweepSpec spec = lu_spec(8, 16);
  spec.axes.push_back(
      {"network.link_bandwidth_gbs", sweep::AxisMode::kScale, {0.5, 1.0, 2.0}});
  sweep::SweepRunner runner(machine::make_power5_hydra(),
                            {machine::make_power6_575()}, {});
  configure_runner(runner);
  const sweep::SweepRunner::SweepReport report = runner.run(spec);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_EQ(report.searches_run, 1u);
  EXPECT_EQ(report.plan.searches.size(), 1u);
  // Comm-only points share the surrogate bitwise; only comm differs.
  for (std::size_t i = 1; i < report.results.size(); ++i) {
    EXPECT_EQ(report.results[i].compute.target_compute,
              report.results[0].compute.target_compute);
    EXPECT_EQ(report.results[i].compute.gamma, report.results[0].compute.gamma);
  }
}

TEST(SweepRunner, WarmRerunPerformsNoSearchAndMatchesBitwise) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("swapp-sweep-warm-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  sweep::SweepConfig config;
  config.cache_dir = dir;
  sweep::SweepSpec spec = lu_spec(8, 16);
  spec.axes.push_back(
      {"mpi.send_overhead_us", sweep::AxisMode::kScale, {1.0, 4.0}});

  sweep::SweepRunner cold(machine::make_power5_hydra(),
                          {machine::make_power6_575()}, config);
  configure_runner(cold);
  const sweep::SweepRunner::SweepReport first = cold.run(spec);
  EXPECT_EQ(first.searches_run, 1u);
  EXPECT_FALSE(first.warm());

  // A fresh runner over the same directory replays everything from disk:
  // no GA search, no simulation, bitwise-equal projections.
  sweep::SweepRunner warm(machine::make_power5_hydra(),
                          {machine::make_power6_575()}, config);
  configure_runner(warm);
  const sweep::SweepRunner::SweepReport second = warm.run(spec);
  EXPECT_EQ(second.searches_run, 0u);
  EXPECT_TRUE(second.warm());
  EXPECT_GT(warm.cache().stats().disk_hits, 0u);
  ASSERT_EQ(second.results.size(), first.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    expect_identical(second.results[i], first.results[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepRunner, SurrogateKeyBytesArePinned) {
  // A persisted surrogate's file name is the fingerprint of its cache key.
  // The key bytes must not drift, or every existing cache directory goes
  // cold; this pins the key an identity sweep writes for fixed inputs.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("swapp-sweep-key-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  sweep::SweepConfig config;
  config.cache_dir = dir;
  sweep::SweepSpec spec = lu_spec(8, 16);
  spec.axes.push_back(
      {"network.link_bandwidth_gbs", sweep::AxisMode::kScale, {1.0}});
  sweep::SweepRunner runner(machine::make_power5_hydra(),
                            {machine::make_power6_575()}, config);
  configure_runner(runner);
  runner.run(spec);
  std::vector<std::string> surrogates;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("surrogate-", 0) == 0 &&
        entry.path().extension() == ".swapp") {
      surrogates.push_back(name);
    }
  }
  std::filesystem::remove_all(dir);
  EXPECT_EQ(surrogates,
            std::vector<std::string>{"surrogate-2dc61ea33efb11f8.swapp"});
}

TEST(SweepRunner, SharedSurrogateKeyHelperReproducesThePin) {
  // Batches and sweeps build the key through one helper; it must produce
  // the bytes pinned above for the same inputs.
  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::make_power6_575();
  sweep::SweepSpec spec = lu_spec(8, 16);
  spec.axes.push_back(
      {"network.link_bandwidth_gbs", sweep::AxisMode::kScale, {1.0}});
  const sweep::SweepPlan plan =
      sweep::plan_sweep(spec, target, sweep::expand(spec, target));
  const std::string key = service::Inputs::surrogate_key(
      service::describe_spec_inputs(base, {target}, plan.task_counts),
      service::Inputs::app_key_material(
          service::describe_app_inputs("LU-MZ.C", base, 1, {4, 8, 16},
                                       {4, 8, 16}),
          core::AppBaseData{}),
      target.name, 16, 1, spec.options.compute);
  EXPECT_EQ(service::fingerprint_hex(service::fingerprint(key)),
            "2dc61ea33efb11f8");
}

TEST(SweepRunner, EnforcesThePointCapAndRegistration) {
  sweep::SweepConfig config;
  config.max_points = 2;
  sweep::SweepRunner runner(machine::make_power5_hydra(),
                            {machine::make_power6_575()}, config);
  configure_runner(runner);
  sweep::SweepSpec spec = lu_spec(8, 16);
  spec.axes.push_back(
      {"os_jitter", sweep::AxisMode::kList, {0.01, 0.02, 0.03}});
  EXPECT_THROW(runner.run(spec), InvalidArgument);  // 3 points > cap 2

  sweep::SweepSpec unknown_app = lu_spec(8, 16);
  unknown_app.app = "BT/C";
  EXPECT_THROW(runner.run(unknown_app), NotFound);

  sweep::SweepSpec unknown_target = lu_spec(8, 16);
  unknown_target.target = "Cray XT5";
  EXPECT_THROW(runner.run(unknown_target), NotFound);
}

// --- result document --------------------------------------------------------

TEST(SweepResultDoc, RoundTripsEveryField) {
  sweep::SweepResultDoc doc;
  doc.app = "LU/C";
  doc.target = "IBM POWER6 575";
  doc.tasks = 8;
  doc.threads = 2;
  doc.reference = 16;
  doc.points = 2;
  doc.compute_classes = 1;
  doc.comm_classes = 2;
  doc.searches = 1;
  doc.naive_spec_targets = 2;
  doc.naive_searches = 2;
  doc.naive_imb_databases = 2;
  doc.axes.push_back({"network.link_bandwidth_gbs", "scale", 2});
  doc.rows.push_back({0, "IBM POWER6 575~abc", 8, 1.5, 0.25, 1.75,
                      {{"network.link_bandwidth_gbs", 0.9}}});
  doc.rows.push_back({1, "IBM POWER6 575", 8, 1.5, 0.125, 1.625,
                      {{"network.link_bandwidth_gbs", 1.8}}});
  doc.phases.push_back({"projection", 0.375});
  doc.artifacts.push_back({"spec library (IBM POWER6 575)", "disk"});

  std::ostringstream os;
  sweep::write_sweep_result(os, doc);
  EXPECT_TRUE(sweep::is_sweep_result(os.str()));
  std::istringstream is(os.str());
  const sweep::SweepResultDoc back = sweep::read_sweep_result(is);
  EXPECT_EQ(back.app, doc.app);
  EXPECT_EQ(back.target, doc.target);
  EXPECT_EQ(back.tasks, doc.tasks);
  EXPECT_EQ(back.threads, doc.threads);
  EXPECT_EQ(back.reference, doc.reference);
  EXPECT_EQ(back.points, doc.points);
  EXPECT_EQ(back.compute_classes, doc.compute_classes);
  EXPECT_EQ(back.comm_classes, doc.comm_classes);
  EXPECT_EQ(back.searches, doc.searches);
  EXPECT_EQ(back.naive_spec_targets, doc.naive_spec_targets);
  EXPECT_EQ(back.naive_searches, doc.naive_searches);
  EXPECT_EQ(back.naive_imb_databases, doc.naive_imb_databases);
  ASSERT_EQ(back.axes.size(), 1u);
  EXPECT_EQ(back.axes[0].field, doc.axes[0].field);
  EXPECT_EQ(back.axes[0].mode, doc.axes[0].mode);
  EXPECT_EQ(back.axes[0].count, doc.axes[0].count);
  ASSERT_EQ(back.rows.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.rows[i].index, doc.rows[i].index);
    EXPECT_EQ(back.rows[i].machine, doc.rows[i].machine);
    EXPECT_EQ(back.rows[i].tasks, doc.rows[i].tasks);
    EXPECT_EQ(back.rows[i].compute_s, doc.rows[i].compute_s);
    EXPECT_EQ(back.rows[i].comm_s, doc.rows[i].comm_s);
    EXPECT_EQ(back.rows[i].total_s, doc.rows[i].total_s);
    ASSERT_EQ(back.rows[i].coords.size(), 1u);
    EXPECT_EQ(back.rows[i].coords[0].field, doc.rows[i].coords[0].field);
    EXPECT_EQ(back.rows[i].coords[0].value, doc.rows[i].coords[0].value);
  }
  ASSERT_EQ(back.phases.size(), 1u);
  EXPECT_EQ(back.phases[0].phase, doc.phases[0].phase);
  EXPECT_EQ(back.phases[0].seconds, doc.phases[0].seconds);
  ASSERT_EQ(back.artifacts.size(), 1u);
  EXPECT_EQ(back.artifacts[0].name, doc.artifacts[0].name);
  EXPECT_EQ(back.artifacts[0].source, doc.artifacts[0].source);

  // The sniffers keep request and result documents apart.
  sweep::SweepSpec spec = lu_spec(8, 16);
  std::ostringstream spec_os;
  sweep::write_sweep_spec(spec_os, spec);
  EXPECT_FALSE(sweep::is_sweep_result(spec_os.str()));
}

}  // namespace
}  // namespace swapp
