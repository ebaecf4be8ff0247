// The SWAPP facade: combined compute + communication projection (paper §3.3).
//
// Quickstart:
//
//   using namespace swapp;
//   core::Projector projector(base_machine, spec_library, base_imb);
//   projector.add_target("IBM POWER6 575", p6_imb);
//   core::ProjectionResult r =
//       projector.project(app_base_data, "IBM POWER6 575", /*ck=*/128);
//   std::cout << r.total_target() << "\n";
//
// `spec_library` must contain benchmark runtimes for every added target (the
// "published data" of §2.3 step 1); `app_base_data` holds only base-machine
// application profiles.  The projector never touches a target-machine
// application run.  Every projection is a batch: `project` runs a one-row
// `project_many`, which indexes the library once per (target, occupancy
// pair) it needs and searches over those indexes.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/comm_projection.h"
#include "core/compute_projection.h"
#include "core/profiles.h"
#include "core/spec_index.h"
#include "imb/suite.h"
#include "machine/machine.h"

namespace swapp::core {

struct ProjectionOptions {
  ComputeProjectionOptions compute;
  CommProjectionOptions comm;
  /// Ablation: couple the components — scale the base total runtime by the
  /// compute speedup alone, ignoring the separate communication projection.
  bool decouple_components = true;
};

/// A full application projection at one task count on one target.
struct ProjectionResult {
  std::string app;
  std::string target;
  int cores = 0;

  ComputeProjection compute;
  CommProjection comm;

  /// Projected per-task compute + communication time — the quantity the
  /// paper compares against measured runtimes.
  Seconds total_target() const {
    return compute.target_compute + comm.target_total();
  }
};

/// One row of a batched projection (the service's request unit): project
/// `app` onto `target` at `cores` tasks under `options`.  `app` is borrowed
/// and must outlive the `project_many` call.
struct ProjectionRequest {
  const AppBaseData* app = nullptr;
  std::string target;
  int cores = 0;
  ProjectionOptions options;
};

/// Canonical key of the compute options that shape a surrogate search —
/// requests agree on it iff a shared search is valid between them.  Keys the
/// shared searches of `Projector::plan_many` and the sweep's persisted
/// surrogates.
std::string compute_options_key(const ComputeProjectionOptions& options);

/// The shared work `Projector::project_many` runs for one request list: the
/// spec indexes, the surrogate searches and, per request, which search it
/// reads.  Slots are numbered in first-appearance order, so the plan — and
/// every merge downstream of it — is a pure function of the request list,
/// independent of thread count.
struct ProjectionPlan {
  /// One indexed spec view per (target, occupancy pair).
  struct Index {
    std::string target;
    int base_occ = 0;
    int target_occ = 0;
  };
  /// One GA search per (app data, target, search count, threads, options)
  /// group of requests.  The search count is the pinned
  /// `surrogate_reference_cores`, else the request's own `cores`.
  struct Search {
    const AppBaseData* app = nullptr;
    std::string target;
    int search_ck = 0;
    ComputeProjectionOptions options;
    std::size_t index = 0;  ///< its spec index slot
  };

  std::vector<Index> indexes;
  std::vector<Search> shared_searches;
  std::vector<std::size_t> search_of;  ///< requests[i] reads search_of[i]

  /// GA searches the plan runs (at most; a search source may serve some
  /// from a cache).
  std::size_t searches() const { return shared_searches.size(); }
  /// Searches N independent `project` calls would run: one per request.
  std::size_t naive_searches() const { return search_of.size(); }
};

/// Resolves one planned search: gets the search and the closure that runs
/// it, and returns its result.  The default runs the closure; an executor
/// with an artifact cache serves the result from it instead.
using SearchSource = std::function<ComputeProjection(
    const ProjectionPlan::Search& search,
    const std::function<ComputeProjection()>& run)>;

/// Rescales a reference-count compute projection to task count `ck`: the
/// CCSM anchor at `ck` replaces the reference anchor, and the surrogate's
/// weights (and hence its Eq. 2 target runtime) scale by the same γ factor.
/// This is the exact function `project_many` applies when
/// `surrogate_reference_cores` is pinned — exposed so the sweep executor can
/// ride one search across core-count points bit-identically.
ComputeProjection rescale_reference(const ComputeProjection& at_reference,
                                    const AppBaseData& app, int reference_ck,
                                    int ck);

class Projector {
 public:
  Projector(machine::Machine base, SpecLibrary spec, imb::ImbDatabase base_imb);

  /// Registers a target's IMB tables.  Benchmark runtimes for the target
  /// must already be present in the SpecLibrary passed at construction.
  void add_target(const std::string& machine_name, imb::ImbDatabase imb);

  const machine::Machine& base() const noexcept { return base_; }
  const SpecLibrary& spec() const noexcept { return spec_; }

  /// Projects `app` onto `target_machine` at task count `ck`: a one-row
  /// `project_many`.
  ProjectionResult project(const AppBaseData& app,
                           const std::string& target_machine, int ck,
                           const ProjectionOptions& options = {}) const;

  /// Plans a batch into shared intermediate artifacts (see
  /// ProjectionPlan).  Throws NotFound for an unregistered target.
  ProjectionPlan plan_many(const std::vector<ProjectionRequest>& requests)
      const;

  /// Batched projection — the collect-once / project-many engine.  Executes
  /// `plan_many(requests)`: independent plan nodes fan out over the thread
  /// pool and results merge in input order.  `results[i]` is byte-identical
  /// to `project(*requests[i].app, requests[i].target, requests[i].cores,
  /// requests[i].options)` at every `SWAPP_THREADS` value — sharing only
  /// removes redundant recomputation, never changes a result.  Every spec
  /// index the plan names is built once from the library, at the
  /// occupancies the search count implies on each machine (hybrid jobs
  /// occupy ck · threads hardware threads).
  std::vector<ProjectionResult> project_many(
      const std::vector<ProjectionRequest>& requests) const;
  /// The same, executing a plan the caller already made (and may report):
  /// `plan` must be `plan_many(requests)`.  `source` resolves each search:
  /// it is called once per element of `plan.shared_searches`, with that
  /// element itself, and must return the closure's result (run now, or
  /// replayed from a cache keyed on everything the search reads).
  std::vector<ProjectionResult> project_many(
      const std::vector<ProjectionRequest>& requests,
      const ProjectionPlan& plan, const SearchSource& source = {}) const;

 private:
  /// Node occupancies a projection at `ck` implies on (base, target).
  std::pair<int, int> occupancies_for(const std::string& target_machine,
                                      int ck, int threads_per_rank) const;

  /// Communication component fed by the projected compute scale.
  CommProjection comm_component(const AppBaseData& app,
                                const std::string& target_machine, int ck,
                                double compute_scale,
                                const ProjectionOptions& options) const;

  machine::Machine base_;
  SpecLibrary spec_;
  imb::ImbDatabase base_imb_;
  std::map<std::string, imb::ImbDatabase> target_imb_;
};

}  // namespace swapp::core
