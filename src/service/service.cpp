#include "service/service.h"

#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/parallel.h"

namespace swapp::service {

ProjectionService::ProjectionService(machine::Machine base,
                                     std::vector<machine::Machine> targets,
                                     ServiceConfig config)
    : Inputs(std::move(base), std::move(targets), config),
      spec_task_counts_(std::move(config.spec_task_counts)) {}

ProjectionService::BatchReport ProjectionService::run(
    const std::vector<ServiceRequest>& requests) {
  SWAPP_SPAN("service.run");
  SWAPP_COUNT("service.batches", 1);
  BatchReport report;
  PhaseClock clock(report.phases);

  report.plan = plan_batch(requests, targets());
  for (const std::string& app : report.plan.apps) {
    if (!has_app(app)) throw NotFound("app not registered: " + app);
  }
  clock.end("plan");

  // --- Acquire shared inputs through the cache -----------------------------
  const std::vector<int>& task_grid = spec_task_counts_.empty()
                                         ? report.plan.task_counts
                                         : spec_task_counts_;
  Acquired<core::SpecLibrary> spec;
  {
    SWAPP_SPAN("service.spec_library");
    spec = spec_library(targets(), task_grid);
  }
  report.artifacts.push_back(ArtifactNote{"spec library", spec.source});
  clock.end("spec-library");

  // IMB databases, base first then targets in configuration order.  Each
  // fan-out item is one machine; the measurement inside is itself parallel
  // when this loop runs serially.
  std::vector<const machine::Machine*> machines;
  machines.push_back(&base());
  for (const machine::Machine& t : targets()) machines.push_back(&t);
  std::vector<Acquired<imb::ImbDatabase>> imb_dbs;
  {
    SWAPP_SPAN("service.imb_databases");
    imb_dbs = parallel_map(machines, [&](const machine::Machine* m) {
      return imb_database(*m);
    });
  }
  for (std::size_t i = 0; i < machines.size(); ++i) {
    report.artifacts.push_back(ArtifactNote{
        "IMB database (" + machines[i]->name + ")", imb_dbs[i].source});
  }
  clock.end("imb-databases");

  // Application base profiles, in plan (first-appearance) order.
  std::vector<Acquired<core::AppBaseData>> app_gets;
  {
    SWAPP_SPAN("service.app_profiles");
    app_gets = parallel_map(report.plan.apps, [&](const std::string& name) {
      return app_profile(name);
    });
  }
  std::map<std::string, const core::AppBaseData*> app_data;
  std::map<const core::AppBaseData*, std::string> app_material;
  for (std::size_t i = 0; i < report.plan.apps.size(); ++i) {
    report.artifacts.push_back(ArtifactNote{
        "app profile (" + report.plan.apps[i] + ")", app_gets[i].source});
    const core::AppBaseData* data = app_gets[i].value.get();
    app_data.emplace(report.plan.apps[i], data);
    app_material.emplace(data, app_key_material(app_gets[i].key, *data));
  }
  clock.end("app-profiles");

  // --- Project the batch ---------------------------------------------------
  core::Projector projector(base(), *spec.value, *imb_dbs.front().value);
  for (std::size_t i = 0; i < targets().size(); ++i) {
    projector.add_target(targets()[i].name, *imb_dbs[i + 1].value);
  }

  std::vector<core::ProjectionRequest> engine_requests;
  engine_requests.reserve(requests.size());
  for (const ServiceRequest& r : requests) {
    const core::AppBaseData& data = *app_data.at(r.app);
    SWAPP_REQUIRE(data.threads_per_rank == r.threads,
                  "request thread count does not match the profile of " +
                      r.app);
    engine_requests.push_back(
        core::ProjectionRequest{&data, r.target, r.cores, r.options});
  }
  // The search counts reported are those of the plan that runs.
  const core::ProjectionPlan engine_plan =
      projector.plan_many(engine_requests);
  report.plan.searches = engine_plan.searches();
  report.plan.naive_searches = engine_plan.naive_searches();
  SWAPP_COUNT("planner.searches", report.plan.searches);
  SWAPP_COUNT("planner.naive_searches", report.plan.naive_searches);

  // Every search resolves through the surrogate cache under the key a sweep
  // point with no axes writes, so a warm cache serves the batch without one.
  // The key names the searched target's one-target library, not the whole
  // target list: a row's search then hits whichever other targets share
  // its batch.
  const std::vector<core::ProjectionPlan::Search>& searches =
      engine_plan.shared_searches;
  std::vector<ArtifactSource> search_sources(searches.size());
  report.results = projector.project_many(
      engine_requests, engine_plan,
      [&](const core::ProjectionPlan::Search& s,
          const std::function<core::ComputeProjection()>& run) {
        const auto slot = static_cast<std::size_t>(&s - searches.data());
        return *cache().surrogate_projection(
            surrogate_key(
                describe_spec_inputs(base(), {target(s.target)}, task_grid),
                app_material.at(s.app), s.target, s.search_ck,
                s.app->threads_per_rank, s.options),
            run, &search_sources[slot]);
      });
  for (std::size_t i = 0; i < searches.size(); ++i) {
    std::ostringstream label;
    label << "surrogate (" << searches[i].app->app << " @ "
          << searches[i].target << " / " << searches[i].search_ck << ")";
    report.artifacts.push_back(ArtifactNote{label.str(), search_sources[i]});
  }
  clock.end("projection");
  report.cache = cache().stats();
  export_phases("service", report.phases);
  return report;
}

}  // namespace swapp::service
