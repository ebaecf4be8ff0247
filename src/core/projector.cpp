#include "core/projector.h"

#include <numeric>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/parallel.h"

namespace swapp::core {

std::string compute_options_key(const ComputeProjectionOptions& o) {
  std::ostringstream ss;
  ss.precision(17);
  // The 0 holds a retired GA option's place so persisted cache keys stay valid.
  ss << o.ga.population << '|' << o.ga.generations << '|' << o.ga.restarts
     << '|' << o.ga.max_terms << '|' << o.ga.runtime_penalty << '|'
     << o.ga.seed << '|' << 0 << '|' << o.use_acsm << '|'
     << o.use_rank_adjustment << '|' << o.surrogate_reference_cores;
  return ss.str();
}

ComputeProjection rescale_reference(const ComputeProjection& at_reference,
                                    const AppBaseData& app, int reference_ck,
                                    int ck) {
  ComputeProjection out = at_reference;
  const CcsmModel ccsm(app.mean_compute);
  const auto exact = app.mean_compute.find(ck);
  out.base_compute =
      exact != app.mean_compute.end() ? exact->second : ccsm.predict(ck);
  SWAPP_REQUIRE(out.base_compute > 0.0, "non-positive base compute anchor");
  SWAPP_ASSERT(at_reference.base_compute > 0.0,
               "reference projection has no base compute anchor");
  const double factor = out.base_compute / at_reference.base_compute;
  out.target_compute = at_reference.target_compute * factor;
  for (SurrogateTerm& t : out.surrogate.terms) t.weight *= factor;
  out.gamma = ccsm.gamma(reference_ck, ck);
  return out;
}

Projector::Projector(machine::Machine base, SpecLibrary spec,
                     imb::ImbDatabase base_imb)
    : base_(std::move(base)),
      spec_(std::move(spec)),
      base_imb_(std::move(base_imb)) {
  SWAPP_REQUIRE(!spec_.names.empty(), "SpecLibrary has no benchmarks");
}

void Projector::add_target(const std::string& machine_name,
                           imb::ImbDatabase imb) {
  SWAPP_REQUIRE(spec_.targets.count(machine_name) != 0,
                "SpecLibrary has no benchmark runtimes for " + machine_name);
  target_imb_.emplace(machine_name, std::move(imb));
}

std::pair<int, int> Projector::occupancies_for(
    const std::string& target_machine, int ck, int threads_per_rank) const {
  SWAPP_REQUIRE(threads_per_rank >= 1, "threads_per_rank must be >= 1");
  const auto target_it = spec_.targets.find(target_machine);
  if (target_it == spec_.targets.end()) {
    throw NotFound("SpecLibrary has no target: " + target_machine);
  }
  // A hybrid job occupies ck · threads hardware threads under block
  // placement, capped by the node size on each machine.
  const int demand = ck * threads_per_rank;
  const int base_occ = SpecLibrary::occupancy_for(demand, base_.cores_per_node);
  const int target_occ =
      SpecLibrary::occupancy_for(demand, target_it->second.cores_per_node);
  return {base_occ, target_occ};
}

CommProjection Projector::comm_component(const AppBaseData& app,
                                         const std::string& target_machine,
                                         int ck, double compute_scale,
                                         const ProjectionOptions& options)
    const {
  SWAPP_SPAN("comm.project");
  const auto imb_it = target_imb_.find(target_machine);
  if (imb_it == target_imb_.end()) {
    throw NotFound("target not registered: " + target_machine);
  }
  const mpi::MpiProfile& profile = app.profile_at(ck);

  if (options.decouple_components) {
    // Step 2 of §3.3: communication projection with the WaitTime model fed
    // by the projected compute speedup.
    return project_communication(profile, ck, base_imb_, imb_it->second,
                                 compute_scale, options.comm);
  }
  // Coupled ablation: the whole communication budget follows the compute
  // speedup — the strategy the paper's decomposition improves upon.
  CommProjection coupled;
  for (const auto& [routine, rp] : profile.routines) {
    ClassProjection& acc = coupled.by_class[mpi::routine_class(routine)];
    const Seconds elapsed =
        rp.total_elapsed / static_cast<double>(profile.ranks);
    acc.base_elapsed += elapsed;
    acc.target_transfer += elapsed * compute_scale;
  }
  return coupled;
}

ProjectionResult Projector::project(const AppBaseData& app,
                                    const std::string& target_machine, int ck,
                                    const ProjectionOptions& options) const {
  return project_many({{&app, target_machine, ck, options}}).front();
}

ProjectionPlan Projector::plan_many(
    const std::vector<ProjectionRequest>& requests) const {
  ProjectionPlan plan;
  plan.search_of.resize(requests.size());
  std::map<std::string, std::size_t> index_slots;
  std::map<std::string, std::size_t> search_slots;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ProjectionRequest& r = requests[i];
    SWAPP_REQUIRE(r.app != nullptr, "ProjectionRequest has no app data");
    if (target_imb_.find(r.target) == target_imb_.end()) {
      throw NotFound("target not registered: " + r.target);
    }
    const int reference = r.options.compute.surrogate_reference_cores;
    const int search_ck = reference > 0 ? reference : r.cores;
    const auto [base_occ, target_occ] =
        occupancies_for(r.target, search_ck, r.app->threads_per_rank);

    const auto [index_it, index_is_new] = index_slots.emplace(
        SpecIndex::key_of(r.target, base_occ, target_occ),
        plan.indexes.size());
    if (index_is_new) {
      plan.indexes.push_back({r.target, base_occ, target_occ});
    }

    // Requests share a search iff they read the same app data (by address:
    // the caller's one copy of an artifact), target, search count, threads
    // and search-shaping options.
    std::ostringstream key;
    key << static_cast<const void*>(r.app) << '|' << r.target << '|'
        << search_ck << '|' << r.app->threads_per_rank << '|'
        << compute_options_key(r.options.compute);
    const auto [search_it, search_is_new] =
        search_slots.emplace(key.str(), plan.shared_searches.size());
    if (search_is_new) {
      plan.shared_searches.push_back(
          {r.app, r.target, search_ck, r.options.compute, index_it->second});
    }
    plan.search_of[i] = search_it->second;
  }
  return plan;
}

std::vector<ProjectionResult> Projector::project_many(
    const std::vector<ProjectionRequest>& requests) const {
  return project_many(requests, plan_many(requests));
}

std::vector<ProjectionResult> Projector::project_many(
    const std::vector<ProjectionRequest>& requests, const ProjectionPlan& plan,
    const SearchSource& source) const {
  SWAPP_SPAN("projector.project_many");
  SWAPP_COUNT("projector.batch_requests", requests.size());
  SWAPP_REQUIRE(plan.search_of.size() == requests.size(),
                "projection plan does not match the requests");
  // Tier 1: spec indexes (independent flattenings).
  std::vector<SpecIndex> indexes;
  {
    SWAPP_SPAN("projector.build_spec_indexes");
    indexes = parallel_map(plan.indexes, [&](const ProjectionPlan::Index& job) {
      SWAPP_SPAN("spec_index.build");
      return SpecIndex::build(spec_, job.target, job.base_occ,
                              job.target_occ);
    });
  }
  // Tier 2: surrogate searches (independent; the GA's own restart fan-out
  // degrades to serial inside this region).
  std::vector<ComputeProjection> searched;
  {
    SWAPP_SPAN("projector.shared_searches");
    searched = parallel_map(
        plan.shared_searches, [&](const ProjectionPlan::Search& job) {
          const auto run = [&] {
            return project_compute(*job.app, indexes[job.index], base_,
                                   job.search_ck, job.options);
          };
          return source ? source(job, run) : run();
        });
  }
  // Tier 3: the requests themselves, merged in input order.
  SWAPP_SPAN("projector.project_requests");
  std::vector<std::size_t> ids(requests.size());
  std::iota(ids.begin(), ids.end(), 0);
  return parallel_map(ids, [&](std::size_t i) {
    const ProjectionRequest& r = requests[i];
    const std::size_t slot = plan.search_of[i];
    ProjectionResult out;
    out.app = r.app->app;
    out.target = r.target;
    out.cores = r.cores;
    // At the search count itself the search is the answer; elsewhere it
    // rides the reference rescale.
    const int search_ck = plan.shared_searches[slot].search_ck;
    const ComputeProjection& surrogate = searched[slot];
    out.compute = search_ck == r.cores
                      ? surrogate
                      : rescale_reference(surrogate, *r.app, search_ck,
                                          r.cores);
    out.comm = comm_component(*r.app, r.target, r.cores,
                              out.compute.compute_scale(), r.options);
    return out;
  });
}

}  // namespace swapp::core
