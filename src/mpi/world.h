// Simulated MPI runtime.
//
// World launches one fiber per rank over the discrete-event engine and gives
// each rank the blocking MPI-style API of RankCtx, so simulated applications
// (the NAS-MZ skeletons, the IMB suite) read exactly like their real MPI
// sources.  Message timing follows a LogGP-style decomposition:
//
//   * CPU overhead per call (MpiLibraryConfig) — Eq. 1's library overhead;
//   * NIC serialisation — consecutive sends from one rank share its NIC;
//   * wire time — latency + bytes/bandwidth from the topology model;
//   * eager vs. rendezvous protocol at the library's eager threshold.
//
// Collectives synchronise all ranks and complete after an algorithmic cost
// model (collectives.cpp); on BlueGene/P the Bcast/Reduce/Allreduce cost
// comes from the dedicated collective-tree network.
//
// A built-in PE-style profiler (profile.h) records every routine's
// message-size distribution and each task's compute/communication split —
// the inputs to SWAPP's communication model.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "machine/counters.h"
#include "machine/machine.h"
#include "mpi/profile.h"
#include "mpi/types.h"
#include "net/network.h"
#include "sim/engine.h"
#include "workload/compute_model.h"
#include "workload/kernel.h"

namespace swapp::mpi {

class World;

/// Per-rank handle passed to the rank body.  All calls must be made from the
/// rank's own fiber.
class RankCtx {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;
  Seconds now() const noexcept;
  machine::SmtMode smt_mode() const noexcept;
  const machine::Machine& machine() const noexcept;

  /// Runs `points` of `kernel` on this rank: advances simulated time by the
  /// compute model's prediction and accrues PMU counters.
  void compute(const workload::Kernel& kernel, double points);
  /// Advances raw time attributed to computation (setup phases etc.).
  void compute_for(Seconds duration);

  // --- point to point -------------------------------------------------------
  void send(int dst, Bytes bytes, int tag = 0);
  void recv(int src, Bytes bytes, int tag = 0);
  void sendrecv(int dst, Bytes send_bytes, int src, Bytes recv_bytes,
                int tag = 0);
  Request isend(int dst, Bytes bytes, int tag = 0);
  Request irecv(int src, Bytes bytes, int tag = 0);
  void waitall(std::span<const Request> requests);

  // --- collectives ------------------------------------------------------------
  void barrier();
  void bcast(int root, Bytes bytes);
  void reduce(int root, Bytes bytes);
  void allreduce(Bytes bytes);
  void allgather(Bytes bytes_per_rank);
  void alltoall(Bytes bytes_per_pair);

 private:
  friend class World;
  RankCtx(World& world, int rank) : world_(&world), rank_(rank) {}
  World* world_;
  int rank_;
};

/// The simulated MPI job.
class World {
 public:
  struct Options {
    machine::SmtMode smt = machine::SmtMode::kSingleThread;
    std::string app_name = "app";
    /// OpenMP threads per MPI rank (hybrid mode): ranks are placed
    /// cores_per_node / threads to a node and each compute() call uses the
    /// thread-level model.
    int threads_per_rank = 1;
    workload::OmpModel omp;
  };

  World(const machine::Machine& m, int ranks, Options options);
  World(const machine::Machine& m, int ranks)
      : World(m, ranks, Options{}) {}
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs `body` on every rank to completion.  May be called once.
  void run(std::function<void(RankCtx&)> body);

  int ranks() const noexcept { return nranks_; }
  const machine::Machine& machine() const noexcept { return machine_; }

  /// Results, valid after run():
  Seconds wall_time() const;
  const MpiProfile& profile() const;
  /// Instruction-weighted PMU counters over all ranks' compute() calls.
  const machine::PmuCounters& counters() const;
  /// Active hardware threads on the node of rank `r` (block placement,
  /// ranks × threads_per_rank).
  int active_cores_on_node_of(int r) const;
  /// Node hosting rank `r` under hybrid-aware block placement.
  int node_of(int r) const;
  /// Ranks that fit one node (cores_per_node / threads_per_rank).
  int ranks_per_node() const noexcept { return ranks_per_node_; }

 private:
  friend class RankCtx;

  // --- matching state --------------------------------------------------------
  struct RequestState {
    std::uint64_t id = 0;
    bool determined = false;  ///< completion time is known
    Seconds complete_time = 0.0;
    Bytes bytes = 0;
    int peer = -1;
    bool is_recv = false;
  };
  struct PendingMessage {  // eager message awaiting a matching recv
    int src;
    int tag;
    Bytes bytes;
    Seconds arrival;
  };
  struct PostedRecv {
    int src;
    int tag;
    Bytes bytes;
    std::uint64_t request_id;
    Seconds post_time;
  };
  struct PendingRendezvous {  // send awaiting the matching recv post
    int src;
    int tag;
    Bytes bytes;
    Seconds sender_ready;
    std::uint64_t send_request_id;  ///< 0 for a blocking send
  };
  enum class WaitKind { kNone, kBlocked };
  struct RankState {
    sim::Process* proc = nullptr;
    // Matching queues, scanned front to back and erased in place.
    std::vector<PendingMessage> unexpected;
    std::vector<PostedRecv> posted;
    std::vector<PendingRendezvous> rendezvous;
    /// Outstanding requests, in no particular order.  A rank holds only a
    /// handful at a time, so a linear scan finds one.
    std::vector<RequestState> requests;
    WaitKind wait_kind = WaitKind::kNone;
    std::vector<std::uint64_t> waiting_on;
    // profiling
    Seconds last_mpi_exit = 0.0;
    TaskBreakdown breakdown;
    machine::PmuCounters counters;
    Seconds finish_time = 0.0;
    int next_collective = 0;
    std::uint64_t compute_calls = 0;

    /// The outstanding request `id`, or nullptr when there is none.
    RequestState* find_request(std::uint64_t id);
    /// Drops request `id` if it is outstanding.
    void erase_request(std::uint64_t id);
  };
  struct CollectiveSlot {
    Routine routine = Routine::kBarrier;
    int root = 0;
    Bytes bytes = 0;
    int arrived = 0;
    Seconds max_entry = 0.0;
  };

  // --- internals --------------------------------------------------------------
  Seconds path_latency(int src, int dst) const;
  double path_bandwidth_gbs(int src, int dst) const;
  /// Books NIC serialisation for `bytes` departing `src` not before `ready`;
  /// returns the arrival time at dst.
  Seconds dispatch(int src, int dst, Bytes bytes, Seconds ready);

  std::uint64_t new_request(int owner, Bytes bytes, int peer, bool is_recv);
  void determine(int owner, std::uint64_t request_id, Seconds complete_time);
  void maybe_wake(int owner);
  /// Waits (in the calling rank's fiber) until all ids are determined, then
  /// advances to the latest completion.  Returns that time.
  Seconds await_requests(int rank, std::span<const std::uint64_t> ids);

  // Unprofiled primitives used by both the public API and sendrecv.
  std::uint64_t isend_impl(int src, int dst, Bytes bytes, int tag,
                           bool blocking);
  std::uint64_t irecv_impl(int dst, int src, Bytes bytes, int tag);
  void collective_enter(int rank, Routine routine, int root, Bytes bytes);

  // Profiling wrappers.
  struct ProfiledCall {
    Seconds entry;
  };
  ProfiledCall call_begin(int rank);
  void call_end(int rank, Routine routine, Bytes bytes, ProfiledCall call,
                double in_flight = 1.0, double rank_distance = 1.0);

  void build_profile();

  machine::Machine machine_;
  int nranks_;
  Options options_;
  int ranks_per_node_ = 1;
  net::Network network_;
  sim::Engine engine_;
  std::vector<RankState> states_;
  /// Outgoing-link availability per node: all ranks of a node share its
  /// network adapter, so their sends serialise against each other.
  std::vector<Seconds> node_nic_free_;
  std::vector<std::unique_ptr<RankCtx>> contexts_;
  std::vector<CollectiveSlot> collectives_;
  std::uint64_t next_request_id_ = 1;
  bool ran_ = false;

  MpiProfile profile_;
  machine::PmuCounters aggregate_counters_;
};

}  // namespace swapp::mpi
