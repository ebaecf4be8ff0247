// Request planner for batched projections: what a batch must acquire.
//
// A batch of projection requests shares most of its expensive inputs: one
// SPEC library and one IMB database per machine serve every request, and
// one profile serves every request of an app.  `plan_batch` validates the
// rows and lists those inputs — the apps, the targets and the task counts
// the SPEC library must cover — so the service fetches each once before
// projecting.  Sharing *between* rows (one indexed spec view per (target,
// occupancy) pair, one GA surrogate search per (app, target, search count,
// threads, options) group) is planned by the engine,
// `core::Projector::plan_many`;
// the service copies that plan's search counts into the batch plan, so the
// numbers it reports are those of the plan that ran.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/projector.h"
#include "machine/machine.h"

namespace swapp::service {

/// One row of a batch, by registered-artifact name (the service resolves
/// `app` to collected base data before projecting).
struct ServiceRequest {
  std::string app;
  std::string target;
  int cores = 0;
  int threads = 1;  ///< OpenMP threads per task; must match the app profile
  core::ProjectionOptions options;
};

struct BatchPlan {
  std::size_t requests = 0;
  std::vector<std::string> apps;     ///< distinct, first-appearance order
  std::vector<std::string> targets;  ///< distinct, first-appearance order
  /// Ascending union of the task-count demands (cores × threads, plus the
  /// surrogate reference demands) — what the SPEC library must cover.
  std::vector<int> task_counts;

  /// GA surrogate searches the batch planned after dedup (the surrogate
  /// cache may serve some), and the searches N independent `project` calls
  /// would have run: copied from the engine's plan (core::ProjectionPlan)
  /// when the batch projects.
  std::size_t searches = 0;
  std::size_t naive_searches = 0;

  /// Human-readable plan summary (one line per fact).
  std::string describe() const;
};

/// Plans the batch against the machines it will run on (`targets` must hold
/// every machine named by a request; throws NotFound otherwise).
BatchPlan plan_batch(const std::vector<ServiceRequest>& requests,
                     const std::vector<machine::Machine>& targets);

}  // namespace swapp::service
