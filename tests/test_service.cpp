// Tests for the batch projection service: project_many vs sequential
// byte-identity (at several thread counts, with and without a shared
// surrogate search), the content-addressed artifact cache (round-trip,
// corruption fallback, eviction, lock files), batch rows served from the
// surrogate cache, and the request planner's dedup.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>

#include "core/projector.h"
#include "experiments/lab.h"
#include "imb/suite.h"
#include "machine/machine.h"
#include "nas/nas_app.h"
#include "obs/metrics.h"
#include "service/artifact_cache.h"
#include "service/planner.h"
#include "service/service.h"
#include "support/error.h"
#include "support/parallel.h"

namespace swapp {
namespace {

using experiments::collect_base_data;
using experiments::collect_spec_library;

const std::vector<int> kCounts = {8, 16, 32};
const std::vector<Bytes> kSizes = {512, 16_KiB, 256_KiB};

/// Restores the default pool size when a test changes it.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_thread_count(0); }
};

/// Shared fixture: small grids, one target, an LU profile.
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new machine::Machine(machine::make_power5_hydra());
    target_ = new machine::Machine(machine::make_power6_575());
    auto spec = collect_spec_library(*base_, {*target_}, kCounts);
    projector_ = new core::Projector(
        *base_, spec, imb::measure_database(*base_, kCounts, kSizes));
    projector_->add_target(target_->name,
                           imb::measure_database(*target_, kCounts, kSizes));
    const nas::NasApp lu(nas::Benchmark::kLU, nas::ProblemClass::kC);
    lu_data_ = new core::AppBaseData(
        collect_base_data(lu, *base_, {4, 8, 16}, {4, 8, 16}));
  }
  static void TearDownTestSuite() {
    delete projector_;
    delete lu_data_;
    delete base_;
    delete target_;
  }

  static std::vector<core::ProjectionRequest> lu_requests(
      const core::ProjectionOptions& options) {
    std::vector<core::ProjectionRequest> requests;
    for (const int ck : {4, 8, 16}) {
      requests.push_back(
          core::ProjectionRequest{lu_data_, target_->name, ck, options});
    }
    return requests;
  }

  static machine::Machine* base_;
  static machine::Machine* target_;
  static core::Projector* projector_;
  static core::AppBaseData* lu_data_;
};

machine::Machine* ServiceTest::base_ = nullptr;
machine::Machine* ServiceTest::target_ = nullptr;
core::Projector* ServiceTest::projector_ = nullptr;
core::AppBaseData* ServiceTest::lu_data_ = nullptr;

/// Bitwise equality of two projection results (operator== on doubles: the
/// batch engine promises byte-identity, not just closeness).
void expect_identical(const core::ProjectionResult& a,
                      const core::ProjectionResult& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.compute.target_compute, b.compute.target_compute);
  EXPECT_EQ(a.compute.base_compute, b.compute.base_compute);
  EXPECT_EQ(a.compute.gamma, b.compute.gamma);
  EXPECT_EQ(a.compute.hyper_scaling_cores, b.compute.hyper_scaling_cores);
  ASSERT_EQ(a.compute.surrogate.terms.size(),
            b.compute.surrogate.terms.size());
  for (std::size_t i = 0; i < a.compute.surrogate.terms.size(); ++i) {
    EXPECT_EQ(a.compute.surrogate.terms[i].benchmark,
              b.compute.surrogate.terms[i].benchmark);
    EXPECT_EQ(a.compute.surrogate.terms[i].weight,
              b.compute.surrogate.terms[i].weight);
  }
  EXPECT_EQ(a.comm.base_total(), b.comm.base_total());
  EXPECT_EQ(a.comm.target_total(), b.comm.target_total());
  EXPECT_EQ(a.total_target(), b.total_target());
}

TEST_F(ServiceTest, BatchMatchesSequentialAtEveryThreadCount) {
  ThreadCountGuard guard;
  const std::vector<core::ProjectionRequest> requests = lu_requests({});

  std::vector<core::ProjectionResult> reference;
  for (const core::ProjectionRequest& r : requests) {
    reference.push_back(projector_->project(*r.app, r.target, r.cores));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    const std::vector<core::ProjectionResult> batch =
        projector_->project_many(requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_identical(batch[i], reference[i]);
    }
  }
}

TEST_F(ServiceTest, SharedSurrogateBatchMatchesSequential) {
  ThreadCountGuard guard;
  core::ProjectionOptions options;
  options.compute.surrogate_reference_cores = 16;
  const std::vector<core::ProjectionRequest> requests = lu_requests(options);

  std::vector<core::ProjectionResult> reference;
  for (const core::ProjectionRequest& r : requests) {
    reference.push_back(
        projector_->project(*r.app, r.target, r.cores, options));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    const std::vector<core::ProjectionResult> batch =
        projector_->project_many(requests);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_identical(batch[i], reference[i]);
    }
  }
  // The shared search pins the surrogate composition: every count selects
  // the same benchmarks, rescaled by the CCSM anchor ratio.
  ASSERT_EQ(reference[0].compute.surrogate.terms.size(),
            reference[2].compute.surrogate.terms.size());
  for (std::size_t t = 0; t < reference[0].compute.surrogate.terms.size();
       ++t) {
    EXPECT_EQ(reference[0].compute.surrogate.terms[t].benchmark,
              reference[2].compute.surrogate.terms[t].benchmark);
  }
}

TEST_F(ServiceTest, SharedSurrogateReferenceCountIsUnscaled) {
  // At the reference count itself the shared search must reproduce the
  // unshared projection exactly (no rescale is applied).
  core::ProjectionOptions options;
  options.compute.surrogate_reference_cores = 16;
  const core::ProjectionResult with_ref =
      projector_->project(*lu_data_, target_->name, 16, options);
  const core::ProjectionResult without =
      projector_->project(*lu_data_, target_->name, 16);
  expect_identical(with_ref, without);
}

TEST(PlannerTest, DedupsSharedArtifacts) {
  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::make_power6_575();
  // Planning reads only node sizes, so a projector over an otherwise empty
  // library is enough to plan (but not to project).
  core::SpecLibrary spec;
  spec.names = {"planning-only"};
  spec.targets[target.name].cores_per_node = target.cores_per_node;
  core::Projector projector(base, spec, imb::ImbDatabase{});
  projector.add_target(target.name, imb::ImbDatabase{});
  const core::AppBaseData lu;
  const core::AppBaseData bt;

  core::ProjectionOptions shared;
  shared.compute.surrogate_reference_cores = 16;
  std::vector<service::ServiceRequest> requests;
  std::vector<core::ProjectionRequest> engine_requests;
  for (const int ck : {4, 8, 16}) {
    requests.push_back(
        service::ServiceRequest{"LU/C", target.name, ck, 1, shared});
    engine_requests.push_back(
        core::ProjectionRequest{&lu, target.name, ck, shared});
    requests.push_back(
        service::ServiceRequest{"BT/C", target.name, ck, 1, shared});
    engine_requests.push_back(
        core::ProjectionRequest{&bt, target.name, ck, shared});
  }
  requests.push_back(service::ServiceRequest{"LU/C", target.name, 8, 1, {}});
  engine_requests.push_back(core::ProjectionRequest{&lu, target.name, 8, {}});

  // What the service acquires before projecting.
  const service::BatchPlan plan = service::plan_batch(requests, {target});
  EXPECT_EQ(plan.requests, 7u);
  EXPECT_EQ(plan.apps, (std::vector<std::string>{"LU/C", "BT/C"}));
  EXPECT_EQ(plan.targets, (std::vector<std::string>{target.name}));
  EXPECT_EQ(plan.task_counts, (std::vector<int>{4, 8, 16}));
  EXPECT_NE(plan.describe().find("7 request(s)"), std::string::npos);
  // What the engine shares, in the plan project_many executes.  All six
  // reference-pinned requests probe at 16 tasks: one occupancy pair, hence
  // one spec index for them; the unpinned request at 8 tasks adds a second.
  // Two profiles -> two searches at 16; plus the unpinned row's own search.
  const core::ProjectionPlan engine = projector.plan_many(engine_requests);
  EXPECT_EQ(engine.indexes.size(), 2u);
  EXPECT_EQ(engine.shared_searches.size(), 3u);
  EXPECT_EQ(engine.searches(), 3u);
  EXPECT_EQ(engine.naive_searches(), 7u);
}

TEST(PlannerTest, UnknownTargetThrows) {
  EXPECT_THROW(
      service::plan_batch({service::ServiceRequest{"LU/C", "Cray XT5", 8}},
                          {machine::make_power6_575()}),
      NotFound);
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("swapp-cache-test-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static imb::ImbDatabase small_db() {
    return imb::measure_database(machine::make_power5_hydra(), {8, 16},
                                 {512, 16_KiB});
  }

  /// Installs a fake clock on `cache` that only `make_index` and explicit
  /// `now_us_` steps advance, so the costs and ages the eviction policy
  /// ranks by are exact and cannot depend on the scheduler.
  void use_fake_clock(service::ArtifactCache& cache) {
    cache.debug_set_clock([this] { return now_us_; });
  }

  /// A spec-index maker whose observed recompute cost is `cost_ms` on the
  /// fake clock.
  std::function<core::SpecIndex()> make_index(int occ, int cost_ms) {
    return [this, occ, cost_ms] {
      now_us_ += cost_ms * 1e3;
      core::SpecIndex index;
      index.target_machine = "t";
      index.base_occupancy = occ;
      index.target_occupancy = occ;
      return index;
    };
  }

  std::filesystem::path dir_;
  double now_us_ = 0.0;
};

TEST_F(CacheTest, RoundTripAcrossCacheInstances) {
  const std::string key = "imb-inputs-v1";
  imb::ImbDatabase computed;
  {
    service::ArtifactCache cold(dir_);
    service::ArtifactSource source = service::ArtifactSource::kMemory;
    const auto db = cold.imb_database(key, &small_db, &source);
    EXPECT_EQ(source, service::ArtifactSource::kComputed);
    computed = *db;

    // Second lookup in the same cache: memory tier, no recompute.
    const auto again = cold.imb_database(
        key, [] { ADD_FAILURE() << "recomputed"; return small_db(); },
        &source);
    EXPECT_EQ(source, service::ArtifactSource::kMemory);
    EXPECT_EQ(cold.stats().memory_hits, 1u);
    EXPECT_EQ(cold.stats().misses, 1u);
  }

  // A fresh cache over the same directory loads from disk — zero simulation
  // — and the loaded artifact is value-identical to the computed one.
  service::ArtifactCache warm(dir_);
  service::ArtifactSource source = service::ArtifactSource::kComputed;
  const auto db = warm.imb_database(
      key, [] { ADD_FAILURE() << "recomputed"; return small_db(); }, &source);
  EXPECT_EQ(source, service::ArtifactSource::kDisk);
  EXPECT_EQ(warm.stats().disk_hits, 1u);
  EXPECT_EQ(db->machine_name, computed.machine_name);
  const auto computed_samples = computed.multi_sendrecv_x1.samples();
  const auto loaded_samples = db->multi_sendrecv_x1.samples();
  ASSERT_EQ(computed_samples.size(), loaded_samples.size());
  for (std::size_t i = 0; i < computed_samples.size(); ++i) {
    EXPECT_EQ(computed_samples[i].seconds, loaded_samples[i].seconds);
  }
}

TEST_F(CacheTest, CorruptedFileIsRejectedAndRecomputed) {
  const std::string key = "imb-inputs-v1";
  {
    service::ArtifactCache cache(dir_);
    cache.imb_database(key, &small_db);
  }
  // Truncate the stored artifact to garbage.
  bool corrupted = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "#swapp \"imb-database\" 1\ngarbage record here\n";
    corrupted = true;
  }
  ASSERT_TRUE(corrupted);

  service::ArtifactCache cache(dir_);
  service::ArtifactSource source = service::ArtifactSource::kDisk;
  const auto db = cache.imb_database(key, &small_db, &source);
  EXPECT_EQ(source, service::ArtifactSource::kComputed);
  EXPECT_EQ(cache.stats().corrupt_files, 1u);
  EXPECT_EQ(db->machine_name, machine::make_power5_hydra().name);

  // The rewritten file is healthy again.
  service::ArtifactCache after(dir_);
  service::ArtifactSource source2 = service::ArtifactSource::kComputed;
  after.imb_database(key, &small_db, &source2);
  EXPECT_EQ(source2, service::ArtifactSource::kDisk);
}

TEST_F(CacheTest, EvictionKeepsLiveReferencesValid) {
  service::ArtifactCache cache({}, /*capacity_per_kind=*/2);
  use_fake_clock(cache);
  // The cost drives the eviction policy: "a" is made unambiguously the
  // cheapest entry, so it is the victim when "c" overflows the tier.
  const auto first = cache.spec_index("a", make_index(1, 0));
  cache.spec_index("b", make_index(2, 20));
  cache.spec_index("c", make_index(3, 20));  // evicts the cheapest entry ("a")
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(first->base_occupancy, 1);  // held reference survives eviction

  // "a" is gone from the memory tier: a fresh request recomputes.
  service::ArtifactSource source = service::ArtifactSource::kMemory;
  cache.spec_index("a", make_index(1, 0), &source);
  EXPECT_EQ(source, service::ArtifactSource::kComputed);
}

TEST_F(CacheTest, CostAwareEvictionSparesExpensiveEntries) {
  service::ArtifactCache cache({}, /*capacity_per_kind=*/2);
  use_fake_clock(cache);
  // "slow" is the oldest entry — the one plain LRU would evict — but it is
  // orders of magnitude costlier to recompute than the quick entries, so
  // the cost-aware policy sacrifices the cheapest entry "quick-1" instead
  // ("quick-2" costs just enough to dominate quick-1's cost).
  cache.spec_index("slow", make_index(1, 25));
  cache.spec_index("quick-1", make_index(2, 0));
  cache.spec_index("quick-2", make_index(3, 5));
  EXPECT_EQ(cache.stats().evictions, 1u);

  service::ArtifactSource source = service::ArtifactSource::kComputed;
  cache.spec_index("slow", make_index(1, 25), &source);
  EXPECT_EQ(source, service::ArtifactSource::kMemory);  // survived
  source = service::ArtifactSource::kMemory;
  cache.spec_index("quick-1", make_index(2, 0), &source);
  EXPECT_EQ(source, service::ArtifactSource::kComputed);  // was the victim
}

TEST_F(CacheTest, DiskCapEvictsOldestFileAtWriteTime) {
  const auto file_for = [this](const std::string& key) {
    return dir_ /
           ("imb-" + service::fingerprint_hex(service::fingerprint(key)) +
            ".swapp");
  };
  // Learn the on-disk size of one artifact, then cap the tier so two fit
  // but three do not.
  std::uintmax_t one = 0;
  {
    service::ArtifactCache probe(dir_);
    probe.imb_database("imb\nkey-a", &small_db);
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      // Only artifacts count (the miss's lock file is already unlinked).
      if (entry.path().extension() != ".swapp") continue;
      one = std::filesystem::file_size(entry.path());
    }
  }
  ASSERT_GT(one, 0u);
  std::filesystem::remove_all(dir_);

  service::ArtifactCache cache(dir_, /*capacity_per_kind=*/16,
                               /*max_disk_bytes=*/2 * one + one / 2);
  cache.imb_database("imb\nkey-a", &small_db);
  // Pin the eviction order: "a" is unambiguously the oldest file.
  std::filesystem::last_write_time(
      file_for("imb\nkey-a"),
      std::filesystem::file_time_type::clock::now() - std::chrono::hours(1));
  cache.imb_database("imb\nkey-b", &small_db);
  EXPECT_EQ(cache.stats().disk_evictions, 0u);  // two files fit the cap

  cache.imb_database("imb\nkey-c", &small_db);  // third save breaks the cap
  EXPECT_EQ(cache.stats().disk_evictions, 1u);
  EXPECT_FALSE(std::filesystem::exists(file_for("imb\nkey-a")));
  EXPECT_TRUE(std::filesystem::exists(file_for("imb\nkey-b")));
  EXPECT_TRUE(std::filesystem::exists(file_for("imb\nkey-c")));

  // A survivor is still loadable from disk by a fresh cache.
  service::ArtifactCache warm(dir_, 16, 2 * one + one / 2);
  service::ArtifactSource source = service::ArtifactSource::kComputed;
  warm.imb_database("imb\nkey-b", &small_db, &source);
  EXPECT_EQ(source, service::ArtifactSource::kDisk);

  // An artifact larger than the cap still persists: the file just written
  // is never the eviction victim, only its elders are.
  service::ArtifactCache tiny(dir_, 16, /*max_disk_bytes=*/1);
  tiny.imb_database("imb\nkey-d", &small_db);
  EXPECT_TRUE(std::filesystem::exists(file_for("imb\nkey-d")));
  EXPECT_EQ(tiny.stats().disk_evictions, 2u);  // both elders ("b" and "c")
}

TEST_F(CacheTest, ConcurrentCachesComputeAPersistentArtifactOnce) {
  // Two cache instances over one directory stand in for two standalone
  // processes: the per-key flock lock file serialises the miss, and the
  // loser of the race re-probes the disk after acquiring the lock and finds
  // the winner's file instead of recomputing.
  const std::string key = "imb\nlock-key";
  std::atomic<int> computed{0};
  const auto slow_make = [&computed] {
    computed.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return small_db();
  };
  service::ArtifactCache first(dir_);
  service::ArtifactCache second(dir_);
  std::shared_ptr<const imb::ImbDatabase> a;
  std::shared_ptr<const imb::ImbDatabase> b;
  std::thread winner([&] { a = first.imb_database(key, slow_make); });
  std::thread loser([&] { b = second.imb_database(key, slow_make); });
  winner.join();
  loser.join();
  EXPECT_EQ(computed.load(), 1);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->machine_name, b->machine_name);
  EXPECT_EQ(first.stats().lock_waits + second.stats().lock_waits, 1u);
  // Lock files are bookkeeping, not artifacts: each is unlinked when its
  // lock is released, so none is left behind.
  bool saw_lock = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    saw_lock |= entry.path().extension() == ".lock";
  }
  EXPECT_FALSE(saw_lock);
}

TEST_F(CacheTest, AgeDecayRetiresStaleExpensiveEntries) {
  // An expensive entry left untouched for many half-lives decays below a
  // fresh cheap entry's score, so it is the eviction victim — a long-lived
  // daemon cannot pin a once-expensive artifact forever.
  service::ArtifactCache cache({}, /*capacity_per_kind=*/2);
  use_fake_clock(cache);
  const double half_life_us = service::ArtifactCache::kEvictionHalfLife * 1e6;
  cache.spec_index("slow", make_index(1, 25));
  now_us_ += 60 * half_life_us;  // score ~ 0
  cache.spec_index("quick-1", make_index(2, 5));
  cache.spec_index("quick-2", make_index(3, 10));  // overflow: evict "slow"
  EXPECT_EQ(cache.stats().evictions, 1u);

  service::ArtifactSource source = service::ArtifactSource::kMemory;
  cache.spec_index("slow", make_index(1, 25), &source);
  EXPECT_EQ(source, service::ArtifactSource::kComputed);  // was the victim
  // Recomputing "slow" overflowed again and took the cheapest fresh entry;
  // the dearer of the two quick entries is still resident.
  source = service::ArtifactSource::kComputed;
  cache.spec_index("quick-2", make_index(3, 10), &source);
  EXPECT_EQ(source, service::ArtifactSource::kMemory);
}

TEST_F(CacheTest, ReportedPlanIsTheExecutedPlan) {
  // Two names registered with the same canonical inputs: the cache hands
  // both one profile, so both rows ride one shared GA search.  The reported
  // search count must be the count that ran, not one per name.
  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::make_power6_575();
  service::ProjectionService svc(base, {target}, {});
  svc.set_spec_collector(&collect_spec_library);
  svc.set_imb_collector([](const machine::Machine& m) {
    return imb::measure_database(m, kCounts, kSizes);
  });
  for (const char* name : {"LU/C", "LU/C#2"}) {
    svc.add_app(name,
                service::describe_app_inputs("LU-MZ.C", base, 1, {4, 8, 16},
                                             {4, 8, 16}),
                [base] {
                  return collect_base_data(
                      nas::NasApp(nas::Benchmark::kLU, nas::ProblemClass::kC),
                      base, {4, 8, 16}, {4, 8, 16});
                });
  }
  core::ProjectionOptions shared;
  shared.compute.surrogate_reference_cores = 16;

  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  const auto searches_so_far = [] {
    const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
    const obs::CounterValue* c = snapshot.counter("ga.searches");
    return c ? c->value : 0u;
  };
  const auto before = searches_so_far();
  const auto report = svc.run({{"LU/C", target.name, 8, 1, shared},
                               {"LU/C#2", target.name, 16, 1, shared}});
  const auto ran = searches_so_far() - before;
  obs::set_metrics_enabled(false);
  obs::reset_metrics();

  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(report.plan.searches, ran);
  EXPECT_EQ(report.plan.naive_searches, 2u);
}

TEST_F(CacheTest, ServiceWarmRunPerformsNoSimulation) {
  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::make_power6_575();
  const auto configure = [&](service::ProjectionService& svc) {
    svc.set_spec_collector(
        [](const machine::Machine& b,
           const std::vector<machine::Machine>& t,
           const std::vector<int>& counts) {
          return collect_spec_library(b, t, counts);
        });
    svc.set_imb_collector([](const machine::Machine& m) {
      return imb::measure_database(m, kCounts, kSizes);
    });
    svc.add_app("LU/C",
                service::describe_app_inputs("LU-MZ.C", base, 1, {4, 8, 16},
                                             {4, 8, 16}),
                [base] {
                  return collect_base_data(
                      nas::NasApp(nas::Benchmark::kLU, nas::ProblemClass::kC),
                      base, {4, 8, 16}, {4, 8, 16});
                });
  };
  service::ServiceConfig config;
  config.cache_dir = dir_;
  const std::vector<service::ServiceRequest> requests = {
      {"LU/C", target.name, 8, 1, {}},
      {"LU/C", target.name, 16, 1, {}},
  };

  service::ProjectionService cold(base, {target}, config);
  configure(cold);
  const auto cold_report = cold.run(requests);
  EXPECT_FALSE(cold_report.warm());
  ASSERT_EQ(cold_report.results.size(), 2u);

  // The report breaks the run down by phase, in execution order, with
  // non-negative wall times.
  ASSERT_EQ(cold_report.phases.size(), 5u);
  EXPECT_EQ(cold_report.phases[0].phase, "plan");
  EXPECT_EQ(cold_report.phases[1].phase, "spec-library");
  EXPECT_EQ(cold_report.phases[2].phase, "imb-databases");
  EXPECT_EQ(cold_report.phases[3].phase, "app-profiles");
  EXPECT_EQ(cold_report.phases[4].phase, "projection");
  for (const auto& p : cold_report.phases) EXPECT_GE(p.seconds, 0.0);

  service::ProjectionService warm(base, {target}, config);
  configure(warm);
  const auto warm_report = warm.run(requests);
  EXPECT_TRUE(warm_report.warm());
  EXPECT_GE(warm_report.cache.disk_hits, 4u);  // spec + 2 IMB + app
  for (std::size_t i = 0; i < warm_report.results.size(); ++i) {
    expect_identical(warm_report.results[i], cold_report.results[i]);
  }
}

TEST_F(CacheTest, BatchRowsReadTheSurrogateCache) {
  // A batch row is a sweep point with no axes: its GA search resolves
  // through the surrogate cache, so a warm directory serves it with no
  // search at all, bit for bit.
  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::make_power6_575();
  const auto configure = [&](service::ProjectionService& svc) {
    svc.set_spec_collector(&collect_spec_library);
    svc.set_imb_collector([](const machine::Machine& m) {
      return imb::measure_database(m, kCounts, kSizes);
    });
    svc.add_app("LU/C",
                service::describe_app_inputs("LU-MZ.C", base, 1, {4, 8, 16},
                                             {4, 8, 16}),
                [base] {
                  return collect_base_data(
                      nas::NasApp(nas::Benchmark::kLU, nas::ProblemClass::kC),
                      base, {4, 8, 16}, {4, 8, 16});
                });
  };
  core::ProjectionOptions pinned;
  pinned.compute.surrogate_reference_cores = 16;
  const std::vector<service::ServiceRequest> requests = {
      {"LU/C", target.name, 8, 1, {}},
      {"LU/C", target.name, 8, 1, {}},  // the same search as the row above
      {"LU/C", target.name, 4, 1, pinned},  // rescaled from the 16 search
      {"LU/C", target.name, 16, 1, {}},
  };
  service::ServiceConfig config;
  config.cache_dir = dir_;

  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  const auto searches_so_far = [] {
    const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
    const obs::CounterValue* c = snapshot.counter("ga.searches");
    return c ? c->value : 0u;
  };
  const auto surrogate_sources = [](const auto& report) {
    std::vector<service::ArtifactSource> sources;
    for (const auto& note : report.artifacts) {
      if (note.name.rfind("surrogate (", 0) == 0) {
        sources.push_back(note.source);
      }
    }
    return sources;
  };

  service::ProjectionService cold(base, {target}, config);
  configure(cold);
  const auto before_cold = searches_so_far();
  const auto cold_report = cold.run(requests);
  const auto cold_searches = searches_so_far() - before_cold;

  service::ProjectionService warm(base, {target}, config);
  configure(warm);
  const auto before_warm = searches_so_far();
  const auto warm_report = warm.run(requests);
  const auto warm_searches = searches_so_far() - before_warm;
  obs::set_metrics_enabled(false);
  obs::reset_metrics();

  // Three distinct searches: the duplicated rows share one.
  EXPECT_EQ(cold_report.plan.searches, 3u);
  EXPECT_EQ(cold_report.plan.naive_searches, 4u);
  EXPECT_EQ(cold_searches, 3u);
  EXPECT_FALSE(cold_report.warm());
  EXPECT_EQ(surrogate_sources(cold_report),
            std::vector<service::ArtifactSource>(
                3, service::ArtifactSource::kComputed));

  EXPECT_EQ(warm_report.plan.searches, 3u);
  EXPECT_EQ(warm_searches, 0u);
  EXPECT_TRUE(warm_report.warm());
  EXPECT_EQ(surrogate_sources(warm_report),
            std::vector<service::ArtifactSource>(
                3, service::ArtifactSource::kDisk));
  ASSERT_EQ(warm_report.results.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_identical(warm_report.results[i], cold_report.results[i]);
  }
}

TEST_F(CacheTest, BatchSurrogatesAreKeyedByTheirOwnTarget) {
  // A search is keyed by its target's one-target library, so a row searched
  // in a one-target batch is a cache hit in a later batch that names other
  // targets first.  The key is sound because a target's part of a
  // multi-target library equals its one-target library: the row projects to
  // the same bits either way.
  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::make_power6_575();
  const machine::Machine other = machine::make_westmere_x5670();
  const auto configure = [&](service::ProjectionService& svc) {
    svc.set_spec_collector(&collect_spec_library);
    svc.set_imb_collector([](const machine::Machine& m) {
      return imb::measure_database(m, kCounts, kSizes);
    });
    svc.add_app("LU/C",
                service::describe_app_inputs("LU-MZ.C", base, 1, {4, 8, 16},
                                             {4, 8, 16}),
                [base] {
                  return collect_base_data(
                      nas::NasApp(nas::Benchmark::kLU, nas::ProblemClass::kC),
                      base, {4, 8, 16}, {4, 8, 16});
                });
  };
  core::ProjectionOptions pinned;
  pinned.compute.surrogate_reference_cores = 16;
  const service::ServiceRequest row{"LU/C", target.name, 8, 1, pinned};
  const std::vector<service::ServiceRequest> mixed = {
      {"LU/C", other.name, 8, 1, pinned}, row};

  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  const auto searches_so_far = [] {
    const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
    const obs::CounterValue* c = snapshot.counter("ga.searches");
    return c ? c->value : 0u;
  };
  const auto source_of = [](const auto& report, const std::string& name) {
    for (const auto& note : report.artifacts) {
      if (note.name.rfind("surrogate (LU-MZ.C @ " + name, 0) == 0) {
        return note.source;
      }
    }
    ADD_FAILURE() << "no surrogate note for " << name;
    return service::ArtifactSource::kComputed;
  };

  service::ServiceConfig config;
  config.shared_cache = std::make_shared<service::ArtifactCache>();
  service::ProjectionService lone(base, {target}, config);
  configure(lone);
  const auto lone_report = lone.run({row});

  service::ProjectionService later(base, {other, target}, config);
  configure(later);
  const auto before = searches_so_far();
  const auto later_report = later.run(mixed);
  const auto later_searches = searches_so_far() - before;

  // The same batch on a cache of its own searches both rows itself.
  service::ProjectionService fresh(base, {other, target}, {});
  configure(fresh);
  const auto fresh_report = fresh.run(mixed);
  obs::set_metrics_enabled(false);
  obs::reset_metrics();

  EXPECT_EQ(later_searches, 1u);  // only the other target's row
  EXPECT_EQ(source_of(later_report, target.name),
            service::ArtifactSource::kMemory);
  EXPECT_EQ(source_of(later_report, other.name),
            service::ArtifactSource::kComputed);
  EXPECT_EQ(source_of(fresh_report, target.name),
            service::ArtifactSource::kComputed);
  ASSERT_EQ(later_report.results.size(), 2u);
  ASSERT_EQ(fresh_report.results.size(), 2u);
  expect_identical(later_report.results[1], lone_report.results[0]);
  expect_identical(fresh_report.results[1], lone_report.results[0]);
  expect_identical(fresh_report.results[0], later_report.results[0]);
}

}  // namespace
}  // namespace swapp
