// MPI profile data model — the simulated equivalent of the IBM Parallel
// Environment profiling library the paper uses (§2.2).
//
// A profile contains exactly what the paper lists:
//   1. every MPI routine called, with aggregate timing;
//   2. the message-size distribution per routine (size, call count, elapsed);
//   3. the per-task breakdown of execution time into compute and
//      communication (Waitall wait time counts as communication).
// Additionally, Waitall buckets record the average number of messages in
// flight, which parameterises the paper's multi-Sendrecv surrogate (Eq. 1's
// x factor).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mpi/types.h"
#include "support/units.h"

namespace swapp::mpi {

/// Per-(routine, message size) statistics.
struct SizeBucket {
  Bytes bytes = 0;
  std::uint64_t calls = 0;
  Seconds elapsed = 0.0;
  /// For Waitall buckets: mean count of outstanding nonblocking messages per
  /// call (the multi-Sendrecv sequence length x in Eq. 1).  1 elsewhere.
  double avg_in_flight = 1.0;
  /// Mean |peer − self| rank distance of the messages in this bucket (the
  /// communication-topology information PE-style profilers record).  Under
  /// block placement a machine with P cores per node serves a message of
  /// rank distance d intra-node with probability ≈ max(0, 1 − d/P), which is
  /// how the projection splits traffic between the intra- and inter-node
  /// benchmark tables.
  double avg_rank_distance = 1.0;
};

/// All activity of one routine, aggregated over ranks.
struct RoutineProfile {
  Routine routine = Routine::kSend;
  std::map<Bytes, SizeBucket> by_size;
  Seconds total_elapsed = 0.0;
  std::uint64_t total_calls = 0;
};

/// Per-task execution-time breakdown (paper §2.2 item 3).
struct TaskBreakdown {
  Seconds compute = 0.0;
  Seconds communication = 0.0;
  Seconds total() const { return compute + communication; }
};

/// A complete application MPI profile at one rank count.
struct MpiProfile {
  std::string application;
  int ranks = 0;
  Seconds wall_time = 0.0;  ///< slowest task's total time

  std::map<Routine, RoutineProfile> routines;
  std::vector<TaskBreakdown> per_task;

  /// Mean per-task compute time.
  Seconds mean_compute() const;
  /// Mean per-task communication time.
  Seconds mean_communication() const;
  /// Fraction of execution time spent communicating (paper Table 1).
  double communication_fraction() const;
  /// Mean per-task elapsed time of one routine (0 when absent).
  Seconds mean_routine_elapsed(Routine r) const;
  /// Mean per-task elapsed of a whole routine class.
  Seconds mean_class_elapsed(RoutineClass c) const;

  bool has_routine(Routine r) const { return routines.count(r) != 0; }
};

}  // namespace swapp::mpi
