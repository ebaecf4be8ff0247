// Experiment harness: reproduces the paper's evaluation (§4).
//
// The Lab owns everything an experiment needs and caches the expensive
// artifacts so a figure driver only pays for what it touches:
//   * SPEC-style benchmark data on base + targets (SpecLibrary);
//   * IMB databases per machine;
//   * NAS-MZ base profiles (MPI profiles at Cj, counters at Ci, ST+SMT);
//   * ground-truth runs of the applications on the targets.
// Projection and ground truth are kept strictly separate: the projector only
// ever sees base profiles and benchmark databases.
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/profiles.h"
#include "core/projector.h"
#include "machine/machine.h"
#include "nas/nas_app.h"
#include "service/inputs.h"
#include "support/table.h"

namespace swapp::experiments {

/// The task counts at which the paper evaluates BT/SP (Figs. 3–5, 7–9).
const std::vector<int>& bt_sp_core_counts();
/// Counter-collection counts Ci (n ≤ 4, per §3.1) for BT/SP.
const std::vector<int>& bt_sp_counter_counts();
/// LU-MZ is limited to 16 tasks (4×4 zones); profiled at {4, 8, 16}.
const std::vector<int>& lu_core_counts();

/// Ground truth: one application run on one machine.
struct ActualRun {
  Seconds wall = 0.0;
  Seconds mean_compute = 0.0;
  Seconds mean_comm = 0.0;
  std::map<mpi::RoutineClass, Seconds> class_elapsed;  ///< per-task mean
};

/// One bar group of a paper figure: percent error per component.
struct ErrorRow {
  int cores = 0;
  nas::ProblemClass cls = nas::ProblemClass::kC;
  double p2p_nb = 0.0;
  double p2p_b = 0.0;
  double collectives = 0.0;
  double overall_comm = 0.0;
  double computation = 0.0;
  double combined = 0.0;  ///< the headline projection error
  /// Signed combined error (for the paper's "54% above actual" statistic).
  double combined_signed = 0.0;
};

struct FigureData {
  std::string title;
  std::string app;     ///< "BT-MZ" etc.
  std::string target;  ///< machine name
  std::vector<ErrorRow> rows;

  TextTable to_table() const;
};

class Lab {
 public:
  /// `target_names`: which of the three paper targets to prepare; empty =
  /// all three.  The base system is always the POWER5+ Hydra.
  /// `cache_dir`: artifact-cache directory shared across processes; empty
  /// keeps all artifacts in memory (every run re-simulates them).
  explicit Lab(std::vector<std::string> target_names = {},
               std::filesystem::path cache_dir = {});

  static std::string power6_name();
  static std::string bluegene_name();
  static std::string westmere_name();

  const machine::Machine& base() const { return inputs_.base(); }
  const machine::Machine& target(const std::string& name) const;
  const std::vector<std::string>& target_names() const {
    return target_names_;
  }

  /// Lazily-built projector over all prepared targets.
  const core::Projector& projector();

  /// Base-machine application data, through the artifact cache.
  std::shared_ptr<const core::AppBaseData> base_data(nas::Benchmark b,
                                                     nas::ProblemClass c);

  /// Ground-truth run (cached).
  const ActualRun& actual(nas::Benchmark b, nas::ProblemClass c,
                          const std::string& machine_name, int ranks);

  /// Projects and compares: one figure bar group.
  ErrorRow error_row(nas::Benchmark b, nas::ProblemClass c,
                     const std::string& target_name, int ranks,
                     const core::ProjectionOptions& options = {});

  /// One figure bar group's coordinates, for the batched comparison API.
  struct RowQuery {
    nas::Benchmark bench = nas::Benchmark::kBT;
    nas::ProblemClass cls = nas::ProblemClass::kC;
    std::string target;
    int ranks = 0;
  };

  /// Batched `error_row`: all projections go through the batch engine
  /// (`Projector::project_many`, sharing indexed spec views and the
  /// surrogate searches of identical rows or of one reference count), and
  /// the ground-truth runs fan out over the pool.  rows[i] is
  /// byte-identical to `error_row(queries[i]...)` at every thread count.
  std::vector<ErrorRow> error_rows(const std::vector<RowQuery>& queries,
                                   const core::ProjectionOptions& options = {});

  /// Full per-figure data: BT/SP style (all core counts × both classes).
  /// Rows are independent (ground-truth run + projection each), so they fan
  /// out over the swapp thread pool; row order and values are identical for
  /// every thread count.
  FigureData figure(nas::Benchmark b, const std::string& target_name,
                    const core::ProjectionOptions& options = {});

  /// Raw projection access (for examples and ablations).
  core::ProjectionResult project(nas::Benchmark b, nas::ProblemClass c,
                                 const std::string& target_name, int ranks,
                                 const core::ProjectionOptions& options = {});

 private:
  std::vector<std::string> target_names_;
  // Expensive inputs (spec library, IMB databases, app profiles) come
  // through the shared acquisition layer and its content-addressed cache:
  // shared_ptr entries stay valid for holders even if evicted, and a cache
  // directory makes them persistent.
  service::Inputs inputs_;
  std::unique_ptr<core::Projector> projector_;
  // Ground truth is not a pipeline artifact: it stays in a per-Lab map,
  // guarded so entries stay stable while parallel figure rows insert.
  std::map<std::string, ActualRun> actuals_;
  std::mutex actuals_mutex_;

  void ensure_databases();
};

/// Collects base-machine application data for an arbitrary NAS app.
core::AppBaseData collect_base_data(const nas::NasApp& app,
                                    const machine::Machine& base,
                                    const std::vector<int>& mpi_counts,
                                    const std::vector<int>& counter_counts);

/// Runs the app on a machine and summarises the ground truth.
ActualRun run_actual(const nas::NasApp& app, const machine::Machine& m,
                     int ranks);

/// Benchmark (SPEC-style) library for base + targets, collected at every
/// node occupancy the given task counts imply.
core::SpecLibrary collect_spec_library(
    const machine::Machine& base, const std::vector<machine::Machine>& targets,
    const std::vector<int>& task_counts);

}  // namespace swapp::experiments
