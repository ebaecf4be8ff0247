// Batch projection service: the collect-once / project-many workflow as one
// subsystem.
//
// A `ProjectionService` is an `Inputs` (inputs.h: machines, artifact cache,
// collectors, app registry) that projects batches.  `run` takes a batch of
// `ServiceRequest` rows, plans what they need (planner.h), acquires the
// shared inputs through the content-addressed cache and projects the batch
// through `Projector::project_many`, whose results are byte-identical to N
// sequential `Projector::project` calls at every thread count.  Each GA
// search resolves through the cache's surrogate kind too, under the key a
// sweep point with no axes writes, so a warm cache directory satisfies a
// whole batch with zero simulation and zero GA searches.
#pragma once

#include <vector>

#include "core/projector.h"
#include "machine/machine.h"
#include "service/artifact_cache.h"
#include "service/inputs.h"
#include "service/planner.h"

namespace swapp::service {

struct ServiceConfig : CacheConfig {
  /// Task-count grid for the SPEC library; empty derives the grid from each
  /// batch's requests.  Fixing it keeps the library artifact shared across
  /// batches with different request mixes.
  std::vector<int> spec_task_counts;
};

class ProjectionService : public Inputs {
 public:
  /// `targets` are the candidate machines this service projects onto (the
  /// SPEC library and one IMB database are collected for all of them).
  ProjectionService(machine::Machine base,
                    std::vector<machine::Machine> targets,
                    ServiceConfig config = {});

  struct BatchReport : Report {
    /// results[i] corresponds to requests[i] (input order).
    std::vector<core::ProjectionResult> results;
    BatchPlan plan;
    // Report::phases: plan, spec-library, imb-databases, app-profiles,
    // projection.  Report::artifacts ends with one surrogate note per
    // planned search.
  };

  /// Plans, acquires artifacts, projects.  Throws NotFound for requests
  /// naming unregistered apps or unconfigured targets.
  BatchReport run(const std::vector<ServiceRequest>& requests);

 private:
  std::vector<int> spec_task_counts_;
};

}  // namespace swapp::service
