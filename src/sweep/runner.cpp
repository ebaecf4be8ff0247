#include "sweep/runner.h"

#include <atomic>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/parallel.h"

namespace swapp::sweep {
namespace {

/// Canonical machine for a compute class: the class's compute-side fields
/// with the original target's comm side.  Every member of the class maps to
/// the same representative, so artifact keys are independent of member
/// order; a class matching the original IS the original (name included),
/// sharing its artifacts with ordinary batch runs.
machine::Machine spec_representative(const machine::Machine& member,
                                     const machine::Machine& original,
                                     bool matches_original) {
  if (matches_original) return original;
  machine::Machine rep = member;
  rep.network = original.network;
  rep.mpi = original.mpi;
  rep.name = original.name + "~c" + machine::config_fingerprint(rep);
  return rep;
}

/// Canonical machine for a comm class: comm side kept, compute side reset.
machine::Machine imb_representative(const machine::Machine& member,
                                    const machine::Machine& original,
                                    bool matches_original) {
  if (matches_original) return original;
  machine::Machine rep = member;
  rep.processor = original.processor;
  rep.caches = original.caches;
  rep.memory_per_core = original.memory_per_core;
  rep.name = original.name + "~m" + machine::config_fingerprint(rep);
  return rep;
}

}  // namespace

SweepRunner::SweepRunner(machine::Machine base,
                         std::vector<machine::Machine> targets,
                         SweepConfig config)
    : Inputs(std::move(base), std::move(targets), config),
      max_points_(config.max_points) {}

SweepRunner::SweepReport SweepRunner::run(const SweepSpec& spec) {
  SWAPP_SPAN("sweep.run");
  SWAPP_REQUIRE(spec.options.decouple_components,
                "sweep requires decoupled components (the delta-aware plan "
                "factors the pipelines along that seam)");
  SWAPP_REQUIRE(
      spec.options.compute.surrogate_reference_cores == spec.reference,
      "sweep options disagree with the spec's reference count");
  if (!has_app(spec.app)) throw NotFound("app not registered: " + spec.app);
  const machine::Machine& original = target(spec.target);

  SweepReport report;
  PhaseClock clock(report.phases);

  // --- Expand and plan -------------------------------------------------------
  report.points = expand(spec, original);
  if (report.points.size() > max_points_) {
    std::ostringstream os;
    os << "sweep expands to " << report.points.size()
       << " points, over the cap of " << max_points_;
    throw InvalidArgument(os.str());
  }
  report.plan = plan_sweep(spec, original, report.points);
  SWAPP_COUNT("sweep.points", report.points.size());
  clock.end("plan");

  // --- One SPEC library per compute class ------------------------------------
  std::vector<machine::Machine> spec_reps;
  spec_reps.reserve(report.plan.compute_classes.size());
  for (const SweepPlan::Class& c : report.plan.compute_classes) {
    spec_reps.push_back(spec_representative(report.points[c.rep].machine,
                                            original, c.matches_original));
  }
  std::vector<Acquired<core::SpecLibrary>> spec_gets;
  {
    SWAPP_SPAN("sweep.spec_libraries");
    spec_gets = parallel_map(spec_reps, [&](const machine::Machine& rep) {
      return spec_library({rep}, report.plan.task_counts);
    });
  }
  for (std::size_t i = 0; i < spec_reps.size(); ++i) {
    report.artifacts.push_back(ArtifactNote{
        "spec library (" + spec_reps[i].name + ")", spec_gets[i].source});
  }
  clock.end("spec-libraries");

  // --- IMB databases: the base once, then one per comm class -----------------
  std::vector<machine::Machine> imb_machines;
  imb_machines.push_back(base());
  for (const SweepPlan::Class& c : report.plan.comm_classes) {
    imb_machines.push_back(imb_representative(report.points[c.rep].machine,
                                              original, c.matches_original));
  }
  std::vector<Acquired<imb::ImbDatabase>> imb_gets;
  {
    SWAPP_SPAN("sweep.imb_databases");
    imb_gets = parallel_map(imb_machines, [&](const machine::Machine& m) {
      return imb_database(m);
    });
  }
  for (std::size_t i = 0; i < imb_machines.size(); ++i) {
    report.artifacts.push_back(ArtifactNote{
        "IMB database (" + imb_machines[i].name + ")", imb_gets[i].source});
  }
  clock.end("imb-databases");

  // --- The application's base profile ----------------------------------------
  Acquired<core::AppBaseData> app_get;
  {
    SWAPP_SPAN("sweep.app_profile");
    app_get = app_profile(spec.app);
  }
  report.artifacts.push_back(
      ArtifactNote{"app profile (" + spec.app + ")", app_get.source});
  const core::AppBaseData& app = *app_get.value;
  SWAPP_REQUIRE(app.threads_per_rank == spec.threads,
                "sweep thread count does not match the profile of " +
                    spec.app);
  clock.end("app-profile");

  // --- Projection: one GA search per search class, then every point ----------
  const std::string app_material = app_key_material(app_get.key, app);
  std::atomic<std::size_t> searches_run{0};
  struct SearchGet {
    std::shared_ptr<const core::ComputeProjection> surrogate;
    service::ArtifactSource source = service::ArtifactSource::kComputed;
    std::string label;
  };
  std::vector<SearchGet> search_gets;
  {
    SWAPP_SPAN("sweep.searches");
    search_gets = parallel_map(
        report.plan.searches, [&](const SweepPlan::Search& s) {
          const Acquired<core::SpecLibrary>& lib = spec_gets[s.compute_class];
          const std::string& rep_name = spec_reps[s.compute_class].name;
          SWAPP_REQUIRE(lib.value->targets.count(rep_name) != 0,
                        "collected library has no target: " + rep_name);
          const int demand = s.search_ck * spec.threads;
          const int base_occ = core::SpecLibrary::occupancy_for(
              demand, base().cores_per_node);
          const int target_occ = core::SpecLibrary::occupancy_for(
              demand, lib.value->targets.at(rep_name).cores_per_node);
          const std::shared_ptr<const core::SpecIndex> index =
              cache().spec_index(
                  lib.key +
                      core::SpecIndex::key_of(rep_name, base_occ, target_occ),
                  [&] {
                    return core::SpecIndex::build(*lib.value, rep_name,
                                                  base_occ, target_occ);
                  });

          SearchGet got;
          std::ostringstream label;
          label << "surrogate (" << spec.app << " @ " << rep_name << " / "
                << s.search_ck << ")";
          got.label = label.str();
          got.surrogate = cache().surrogate_projection(
              surrogate_key(lib.key, app_material, rep_name, s.search_ck,
                            spec.threads, spec.options.compute),
              [&] {
                searches_run.fetch_add(1, std::memory_order_relaxed);
                return core::project_compute(app, *index, base(),
                                             s.search_ck,
                                             spec.options.compute);
              },
              &got.source);
          return got;
        });
  }
  for (const SearchGet& got : search_gets) {
    report.artifacts.push_back(ArtifactNote{got.label, got.source});
  }
  report.searches_run = searches_run.load(std::memory_order_relaxed);
  SWAPP_COUNT("sweep.searches_run", report.searches_run);

  {
    SWAPP_SPAN("sweep.project_points");
    report.results = parallel_map(
        report.points, [&](const SweepPoint& point) {
          const SweepPlan::Search& search =
              report.plan.searches[report.plan.search_of[point.index]];
          const core::ComputeProjection& surrogate =
              *search_gets[report.plan.search_of[point.index]].surrogate;

          core::ProjectionResult out;
          out.app = app.app;
          out.target = point.machine.name;
          out.cores = point.tasks;
          out.compute =
              point.tasks == search.search_ck
                  ? surrogate
                  : core::rescale_reference(surrogate, app, search.search_ck,
                                            point.tasks);
          const imb::ImbDatabase& target_db =
              *imb_gets[report.plan.comm_class_of[point.index] + 1].value;
          out.comm = core::project_communication(
              app.profile_at(point.tasks), point.tasks, *imb_gets[0].value,
              target_db, out.compute.compute_scale(), spec.options.comm);
          return out;
        });
  }
  clock.end("projection");
  report.cache = cache().stats();
  export_phases("sweep", report.phases);
  return report;
}

SweepResultDoc make_sweep_result(const SweepSpec& spec,
                                 const SweepRunner::SweepReport& report) {
  SweepResultDoc doc;
  doc.app = spec.app;
  doc.target = spec.target;
  doc.tasks = spec.tasks;
  doc.threads = spec.threads;
  doc.reference = spec.reference;
  doc.points = report.points.size();

  doc.compute_classes = report.plan.compute_classes.size();
  doc.comm_classes = report.plan.comm_classes.size();
  doc.searches = report.plan.searches.size();
  doc.naive_spec_targets = report.plan.naive_spec_targets;
  doc.naive_searches = report.plan.naive_searches;
  doc.naive_imb_databases = report.plan.naive_imb_databases;

  for (const Axis& axis : spec.axes) {
    doc.axes.push_back(
        {axis.field, to_string(axis.mode), axis.values.size()});
  }
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const SweepPoint& point = report.points[i];
    const core::ProjectionResult& r = report.results[i];
    SweepResultDoc::PointRow row;
    row.index = point.index;
    row.machine = point.machine.name;
    row.tasks = point.tasks;
    row.compute_s = r.compute.target_compute;
    row.comm_s = r.comm.target_total();
    row.total_s = r.total_target();
    row.coords = point.coords;
    doc.rows.push_back(std::move(row));
  }
  for (const SweepRunner::PhaseTime& p : report.phases) {
    doc.phases.push_back({p.phase, p.seconds});
  }
  for (const SweepRunner::ArtifactNote& note : report.artifacts) {
    doc.artifacts.push_back({note.name, service::to_string(note.source)});
  }
  return doc;
}

}  // namespace swapp::sweep
