// The inputs every projection executor acquires: one acquisition layer.
//
// `Inputs` owns the machines, the artifact cache, the collectors that can
// (re)build each input artifact and the registry of applications.  Its
// acquisition helpers fetch a SPEC library, an IMB database or an app
// profile through the content-addressed cache (artifact_cache.h) and say
// which tier supplied it.  `ProjectionService` (batches) and
// `sweep::SweepRunner` (design-space sweeps) derive from it and
// `experiments::Lab` holds one, so all three register apps and acquire
// artifacts the same way, under the same cache keys.
//
// The layer depends only on core/io/imb/machine: application profiling and
// SPEC-library collection are injected as functions, so callers (CLI, Lab)
// decide where those come from without this layer linking the simulator
// harness.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/compute_projection.h"
#include "core/profiles.h"
#include "imb/suite.h"
#include "machine/machine.h"
#include "service/artifact_cache.h"

namespace swapp::service {

/// The cache settings every executor's configuration shares.
struct CacheConfig {
  /// Artifact cache directory; empty keeps the cache in memory only.
  std::filesystem::path cache_dir;
  /// Byte cap for the disk tier (0 = unbounded); see ArtifactCache.
  std::uintmax_t cache_dir_max_bytes = 0;
  /// When set, the executor records into this cache instead of owning one
  /// (the cache_* fields above are then ignored).  A long-running owner —
  /// the projection server — shares one resident cache across the
  /// short-lived executors it builds per request, making that owner the
  /// single process touching the cache directory.
  std::shared_ptr<ArtifactCache> shared_cache;
};

/// `config.shared_cache` when set, else a new cache built from the other
/// fields.
std::shared_ptr<ArtifactCache> make_cache(const CacheConfig& config);

class Inputs {
 public:
  /// Collects the SPEC-style library of `base` and `targets`.  A target's
  /// data must not depend on which other targets are collected with it: a
  /// batch keys each GA search by its target's one-target library
  /// description, so a multi-target library must hold, per target, exactly
  /// what that target's one-target library holds.
  using SpecCollector = std::function<core::SpecLibrary(
      const machine::Machine& base,
      const std::vector<machine::Machine>& targets,
      const std::vector<int>& task_counts)>;
  using ImbCollector =
      std::function<imb::ImbDatabase(const machine::Machine&)>;
  using AppCollector = std::function<core::AppBaseData()>;

  /// One acquired artifact and the tier that satisfied it.
  struct ArtifactNote {
    std::string name;
    ArtifactSource source = ArtifactSource::kComputed;
  };

  /// Wall-clock time one phase of a run took.  Always measured (one clock
  /// read per phase), independent of the obs runtime switches.
  struct PhaseTime {
    std::string phase;
    double seconds = 0.0;
  };

  /// What every executor's report carries besides its results.
  struct Report {
    std::vector<ArtifactNote> artifacts;  ///< acquisition order
    CacheStats cache;                     ///< cumulative cache counters
    std::vector<PhaseTime> phases;        ///< execution order
    /// True iff no artifact of this run had to be computed (every input
    /// came from the memory or disk tier — a fully warm run).
    bool warm() const;
  };

  /// Times consecutive phases of one run: each `end` closes the phase that
  /// began at the previous `end` (or at construction).
  class PhaseClock {
   public:
    explicit PhaseClock(std::vector<PhaseTime>& phases);
    void end(const char* phase);

   private:
    std::vector<PhaseTime>& phases_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Surfaces a run's phase breakdown in the metrics snapshot:
  /// "<prefix>.phase_s.<phase>" gauges for the latest run and
  /// "<prefix>.phase_us.<phase>" histograms across runs, so machine-readable
  /// exports (--metrics, the server's stats endpoint) carry per-phase
  /// wall-clock without parsing stderr.
  static void export_phases(const std::string& prefix,
                            const std::vector<PhaseTime>& phases);

  /// Cache-key material identifying an application.  Collector-backed apps
  /// use their registered canonical inputs; a file-backed profile (empty
  /// `canonical`) is content-addressed, since its registration carries no
  /// input description.
  static std::string app_key_material(const std::string& canonical,
                                      const core::AppBaseData& data);
  /// The surrogate cache key of one GA search (see
  /// ArtifactCache::surrogate_projection): everything the search consumed —
  /// the input description `library_key` of the searched target's
  /// one-target library, the app's `app_material` and the search shape.
  /// Batch rows and sweep points agree on a key iff they agree on those
  /// inputs.
  static std::string surrogate_key(
      const std::string& library_key, const std::string& app_material,
      const std::string& target, int search_ck, int threads,
      const core::ComputeProjectionOptions& options);

  /// An artifact fetched by one of the acquisition helpers.
  template <typename T>
  struct Acquired {
    std::shared_ptr<const T> value;
    ArtifactSource source = ArtifactSource::kComputed;
    /// The cache-key material it was fetched under (empty for a
    /// file-backed app profile, which bypassed the cache).
    std::string key;
  };

  /// `targets` are the machines this executor projects onto; at least one.
  Inputs(machine::Machine base, std::vector<machine::Machine> targets,
         const CacheConfig& config);

  /// Collector for SPEC-style libraries; must be set before a library is
  /// acquired (this layer does not link a benchmark runner).
  void set_spec_collector(SpecCollector collect);
  /// Collector for per-machine IMB databases; defaults to
  /// `imb::measure_database`.
  void set_imb_collector(ImbCollector collect);

  /// Registers an application by name.  `canonical_inputs` is the cache key
  /// material (see describe_app_inputs); `collect` produces the base profile
  /// on a cache miss.
  void add_app(const std::string& name, std::string canonical_inputs,
               AppCollector collect);
  /// Registers an already-collected profile from a file (loaded eagerly;
  /// never re-simulated, never re-persisted).
  void add_app_file(const std::string& name,
                    const std::filesystem::path& path);
  bool has_app(const std::string& name) const;

  ArtifactCache& cache() noexcept { return *cache_; }
  const machine::Machine& base() const noexcept { return base_; }
  const std::vector<machine::Machine>& targets() const noexcept {
    return targets_;
  }
  /// The configured target named `name`; throws NotFound otherwise.
  const machine::Machine& target(const std::string& name) const;

  // --- acquisition helpers: thread-safe once configured ---------------------
  /// The SPEC library of the base machine and `targets` at `task_counts`.
  Acquired<core::SpecLibrary> spec_library(
      const std::vector<machine::Machine>& targets,
      const std::vector<int>& task_counts) const;
  /// The IMB database of `m` at the default core counts and message sizes.
  Acquired<imb::ImbDatabase> imb_database(const machine::Machine& m) const;
  /// The base profile of the app registered as `name`; throws NotFound for
  /// an unregistered name.
  Acquired<core::AppBaseData> app_profile(const std::string& name) const;

 private:
  struct AppEntry {
    std::string canonical;
    AppCollector collect;
    std::shared_ptr<const core::AppBaseData> fixed;  ///< file-backed apps
  };

  machine::Machine base_;
  std::vector<machine::Machine> targets_;
  std::shared_ptr<ArtifactCache> cache_;
  SpecCollector collect_spec_;
  ImbCollector collect_imb_;
  std::map<std::string, AppEntry> apps_;
};

}  // namespace swapp::service
