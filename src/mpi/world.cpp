#include "mpi/world.h"

#include <algorithm>
#include <cmath>

#include "mpi/collectives.h"
#include "support/error.h"

namespace swapp::mpi {

// ---------------------------------------------------------------------------
// RankCtx — thin forwarding layer with profiling around each call.
// ---------------------------------------------------------------------------

int RankCtx::size() const noexcept { return world_->ranks(); }

Seconds RankCtx::now() const noexcept { return world_->engine_.now(); }

machine::SmtMode RankCtx::smt_mode() const noexcept {
  return world_->options_.smt;
}

const machine::Machine& RankCtx::machine() const noexcept {
  return world_->machine_;
}

namespace {

// SplitMix64 finaliser: cheap, well-mixed deterministic hash.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void RankCtx::compute(const workload::Kernel& kernel, double points) {
  World::RankState& s = world_->states_[rank_];
  const workload::ComputeContext ctx{
      .active_cores_per_node = world_->active_cores_on_node_of(rank_),
      .smt = world_->options_.smt,
      .omp_threads = world_->options_.threads_per_rank,
      .omp = world_->options_.omp};
  const workload::ComputeSample sample =
      workload::evaluate(kernel, points, world_->machine_, ctx);
  s.counters.accumulate(sample.counters);
  // Deterministic OS/system noise: daemons, page faults, network interrupts.
  const std::uint64_t h = mix64(
      (static_cast<std::uint64_t>(rank_) << 32) ^ s.compute_calls++);
  const double noise = static_cast<double>(h >> 11) * 0x1.0p-53;
  s.proc->advance(sample.seconds *
                  (1.0 + world_->machine_.os_jitter * noise));
}

void RankCtx::compute_for(Seconds duration) {
  world_->states_[rank_].proc->advance(duration);
}

void RankCtx::send(int dst, Bytes bytes, int tag) {
  auto call = world_->call_begin(rank_);
  world_->isend_impl(rank_, dst, bytes, tag, /*blocking=*/true);
  world_->call_end(rank_, Routine::kSend, bytes, call);
}

void RankCtx::recv(int src, Bytes bytes, int tag) {
  auto call = world_->call_begin(rank_);
  const std::uint64_t id = world_->irecv_impl(rank_, src, bytes, tag);
  const std::uint64_t ids[] = {id};
  world_->await_requests(rank_, ids);
  World::RankState& s = world_->states_[rank_];
  s.proc->advance(world_->machine_.mpi.recv_overhead);
  s.erase_request(id);
  world_->call_end(rank_, Routine::kRecv, bytes, call);
}

void RankCtx::sendrecv(int dst, Bytes send_bytes, int src, Bytes recv_bytes,
                       int tag) {
  auto call = world_->call_begin(rank_);
  const std::uint64_t rid = world_->irecv_impl(rank_, src, recv_bytes, tag);
  const std::uint64_t sid =
      world_->isend_impl(rank_, dst, send_bytes, tag, /*blocking=*/false);
  const std::uint64_t ids[] = {rid, sid};
  world_->await_requests(rank_, ids);
  World::RankState& s = world_->states_[rank_];
  s.proc->advance(world_->machine_.mpi.recv_overhead);
  s.erase_request(rid);
  s.erase_request(sid);
  world_->call_end(rank_, Routine::kSendrecv, std::max(send_bytes, recv_bytes),
                   call);
}

Request RankCtx::isend(int dst, Bytes bytes, int tag) {
  auto call = world_->call_begin(rank_);
  const std::uint64_t id =
      world_->isend_impl(rank_, dst, bytes, tag, /*blocking=*/false);
  world_->call_end(rank_, Routine::kIsend, bytes, call);
  return Request{id};
}

Request RankCtx::irecv(int src, Bytes bytes, int tag) {
  auto call = world_->call_begin(rank_);
  const std::uint64_t id = world_->irecv_impl(rank_, src, bytes, tag);
  world_->call_end(rank_, Routine::kIrecv, bytes, call);
  return Request{id};
}

void RankCtx::waitall(std::span<const Request> requests) {
  auto call = world_->call_begin(rank_);
  World::RankState& s = world_->states_[rank_];
  std::vector<std::uint64_t> ids;
  ids.reserve(requests.size());
  Bytes total_bytes = 0;
  double distance_weighted = 0.0;
  int recvs = 0;
  for (const Request& r : requests) {
    const World::RequestState* req = s.find_request(r.id);
    SWAPP_REQUIRE(req != nullptr, "waitall on unknown request");
    ids.push_back(r.id);
    total_bytes += req->bytes;
    distance_weighted +=
        static_cast<double>(req->bytes) * std::abs(req->peer - rank_);
    if (req->is_recv) ++recvs;
  }
  world_->await_requests(rank_, ids);
  // Per-request completion bookkeeping (request finalisation, status copy).
  s.proc->advance(static_cast<double>(ids.size()) *
                  world_->machine_.mpi.nonblocking_post_overhead);
  for (const std::uint64_t id : ids) s.erase_request(id);
  // Bucket by the mean outstanding-message size: the multi-Sendrecv model
  // prices x messages of this size, which matches a mixed-size exchange
  // because transfer cost is near-linear in bytes.
  const Bytes mean_bytes = std::max<Bytes>(
      1, ids.empty() ? 1 : total_bytes / ids.size());
  const double mean_distance =
      total_bytes > 0 ? distance_weighted / static_cast<double>(total_bytes)
                      : 1.0;
  world_->call_end(rank_, Routine::kWaitall, mean_bytes, call,
                   std::max(1.0, static_cast<double>(recvs)), mean_distance);
}

void RankCtx::barrier() {
  auto call = world_->call_begin(rank_);
  world_->collective_enter(rank_, Routine::kBarrier, 0, 8);
  world_->call_end(rank_, Routine::kBarrier, 8, call);
}

void RankCtx::bcast(int root, Bytes bytes) {
  auto call = world_->call_begin(rank_);
  world_->collective_enter(rank_, Routine::kBcast, root, bytes);
  world_->call_end(rank_, Routine::kBcast, bytes, call);
}

void RankCtx::reduce(int root, Bytes bytes) {
  auto call = world_->call_begin(rank_);
  world_->collective_enter(rank_, Routine::kReduce, root, bytes);
  world_->call_end(rank_, Routine::kReduce, bytes, call);
}

void RankCtx::allreduce(Bytes bytes) {
  auto call = world_->call_begin(rank_);
  world_->collective_enter(rank_, Routine::kAllreduce, 0, bytes);
  world_->call_end(rank_, Routine::kAllreduce, bytes, call);
}

void RankCtx::allgather(Bytes bytes_per_rank) {
  auto call = world_->call_begin(rank_);
  world_->collective_enter(rank_, Routine::kAllgather, 0, bytes_per_rank);
  world_->call_end(rank_, Routine::kAllgather, bytes_per_rank, call);
}

void RankCtx::alltoall(Bytes bytes_per_pair) {
  auto call = world_->call_begin(rank_);
  world_->collective_enter(rank_, Routine::kAlltoall, 0, bytes_per_pair);
  world_->call_end(rank_, Routine::kAlltoall, bytes_per_pair, call);
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

namespace {

int ranks_per_node_for(const machine::Machine& m, int threads_per_rank) {
  SWAPP_REQUIRE(threads_per_rank >= 1, "threads_per_rank must be >= 1");
  SWAPP_REQUIRE(threads_per_rank <= m.cores_per_node,
                "more threads per rank than cores per node");
  return std::max(1, m.cores_per_node / threads_per_rank);
}

int nodes_for(const machine::Machine& m, int ranks, int threads_per_rank) {
  const int rpn = ranks_per_node_for(m, threads_per_rank);
  return (ranks + rpn - 1) / rpn;
}

}  // namespace

World::World(const machine::Machine& m, int ranks, Options options)
    : machine_(m),
      nranks_(ranks),
      options_(std::move(options)),
      ranks_per_node_(ranks_per_node_for(m, options_.threads_per_rank)),
      network_(m.network, nodes_for(m, ranks, options_.threads_per_rank)),
      states_(static_cast<std::size_t>(ranks)),
      node_nic_free_(
          static_cast<std::size_t>(nodes_for(m, ranks,
                                             options_.threads_per_rank)),
          0.0) {
  SWAPP_REQUIRE(ranks >= 1, "world needs at least one rank");
  contexts_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    contexts_.push_back(std::unique_ptr<RankCtx>(new RankCtx(*this, r)));
  }
}

World::~World() = default;

int World::node_of(int r) const { return r / ranks_per_node_; }

int World::active_cores_on_node_of(int r) const {
  const int node = node_of(r);
  const int ranks_on_node =
      std::min(ranks_per_node_, nranks_ - node * ranks_per_node_);
  return std::min(machine_.cores_per_node,
                  ranks_on_node * options_.threads_per_rank);
}

Seconds World::path_latency(int src, int dst) const {
  return network_.latency(node_of(src), node_of(dst));
}

double World::path_bandwidth_gbs(int src, int dst) const {
  return network_.bandwidth_gbs(node_of(src), node_of(dst));
}

Seconds World::dispatch(int src, int dst, Bytes bytes, Seconds ready) {
  const double bw = path_bandwidth_gbs(src, dst);
  const Seconds serialisation = static_cast<double>(bytes) / (bw * 1e9);
  const int src_node = node_of(src);
  const int dst_node = node_of(dst);
  if (src_node == dst_node) {
    // Shared-memory transport does not occupy the network adapter.
    return ready + serialisation + path_latency(src, dst);
  }
  Seconds& nic_free = node_nic_free_[static_cast<std::size_t>(src_node)];
  const Seconds depart = std::max(nic_free, ready);
  nic_free = depart + serialisation;
  return depart + serialisation + path_latency(src, dst);
}

World::RequestState* World::RankState::find_request(std::uint64_t id) {
  for (RequestState& r : requests) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

void World::RankState::erase_request(std::uint64_t id) {
  for (RequestState& r : requests) {
    if (r.id == id) {
      r = requests.back();
      requests.pop_back();
      return;
    }
  }
}

std::uint64_t World::new_request(int owner, Bytes bytes, int peer,
                                 bool is_recv) {
  const std::uint64_t id = next_request_id_++;
  states_[static_cast<std::size_t>(owner)].requests.push_back(
      RequestState{.id = id,
                   .determined = false,
                   .complete_time = 0.0,
                   .bytes = bytes,
                   .peer = peer,
                   .is_recv = is_recv});
  return id;
}

void World::determine(int owner, std::uint64_t request_id,
                      Seconds complete_time) {
  RequestState* req =
      states_[static_cast<std::size_t>(owner)].find_request(request_id);
  SWAPP_ASSERT(req != nullptr, "determine() on unknown request");
  SWAPP_ASSERT(!req->determined, "request determined twice");
  req->determined = true;
  req->complete_time = complete_time;
}

void World::maybe_wake(int owner) {
  RankState& s = states_[static_cast<std::size_t>(owner)];
  if (s.wait_kind != WaitKind::kBlocked) return;
  Seconds latest = engine_.now();
  for (const std::uint64_t id : s.waiting_on) {
    const RequestState* req = s.find_request(id);
    SWAPP_ASSERT(req != nullptr, "waiting on unknown request");
    if (!req->determined) return;  // still incomplete
    latest = std::max(latest, req->complete_time);
  }
  s.wait_kind = WaitKind::kNone;
  s.waiting_on.clear();
  s.proc->unblock_at(latest);
}

Seconds World::await_requests(int rank, std::span<const std::uint64_t> ids) {
  RankState& s = states_[static_cast<std::size_t>(rank)];
  while (true) {
    bool all_determined = true;
    Seconds latest = engine_.now();
    for (const std::uint64_t id : ids) {
      const RequestState* req = s.find_request(id);
      SWAPP_ASSERT(req != nullptr, "await on unknown request");
      if (!req->determined) {
        all_determined = false;
        break;
      }
      latest = std::max(latest, req->complete_time);
    }
    if (all_determined) {
      if (latest > engine_.now()) s.proc->advance(latest - engine_.now());
      return latest;
    }
    s.wait_kind = WaitKind::kBlocked;
    s.waiting_on.assign(ids.begin(), ids.end());
    s.proc->block();  // resumed by maybe_wake at the latest completion
  }
}

std::uint64_t World::isend_impl(int src, int dst, Bytes bytes, int tag,
                                bool blocking) {
  SWAPP_REQUIRE(dst >= 0 && dst < nranks_, "send destination out of range");
  SWAPP_REQUIRE(dst != src, "self-messaging is not modelled");
  RankState& s = states_[static_cast<std::size_t>(src)];
  RankState& d = states_[static_cast<std::size_t>(dst)];
  const machine::MpiLibraryConfig& mpi = machine_.mpi;
  const Seconds t0 = engine_.now();
  const Seconds cpu =
      blocking ? mpi.send_overhead : mpi.nonblocking_post_overhead;
  const std::uint64_t req = new_request(src, bytes, dst, /*is_recv=*/false);

  if (bytes <= mpi.eager_threshold) {
    const Seconds arrival = dispatch(src, dst, bytes, t0 + cpu);
    // The sender's buffer is reusable once the payload is on the wire.
    determine(src, req, arrival - path_latency(src, dst));
    // Match against a posted receive at the destination.
    bool matched = false;
    for (auto it = d.posted.begin(); it != d.posted.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        determine(dst, it->request_id, std::max(arrival, it->post_time));
        d.posted.erase(it);
        matched = true;
        maybe_wake(dst);
        break;
      }
    }
    if (!matched) {
      d.unexpected.push_back(
          PendingMessage{.src = src, .tag = tag, .bytes = bytes,
                         .arrival = arrival});
    }
  } else {
    // Rendezvous: the payload moves only after the receive is posted.
    bool matched = false;
    for (auto it = d.posted.begin(); it != d.posted.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        const Seconds start = std::max(t0 + cpu + mpi.rendezvous_overhead,
                                       it->post_time);
        const Seconds arrival = dispatch(src, dst, bytes, start);
        determine(src, req, arrival);
        determine(dst, it->request_id, arrival);
        d.posted.erase(it);
        matched = true;
        maybe_wake(dst);
        break;
      }
    }
    if (!matched) {
      d.rendezvous.push_back(PendingRendezvous{.src = src,
                                               .tag = tag,
                                               .bytes = bytes,
                                               .sender_ready = t0 + cpu,
                                               .send_request_id = req});
    }
  }

  s.proc->advance(cpu);
  if (blocking) {
    const std::uint64_t ids[] = {req};
    await_requests(src, ids);
    s.erase_request(req);
  }
  return req;
}

std::uint64_t World::irecv_impl(int self, int src, Bytes bytes, int tag) {
  SWAPP_REQUIRE(src >= 0 && src < nranks_, "recv source out of range");
  SWAPP_REQUIRE(src != self, "self-messaging is not modelled");
  RankState& s = states_[static_cast<std::size_t>(self)];
  const machine::MpiLibraryConfig& mpi = machine_.mpi;
  const Seconds t0 = engine_.now();
  const std::uint64_t req = new_request(self, bytes, src, /*is_recv=*/true);

  bool matched = false;
  // Eager messages already sent (possibly still in flight).
  for (auto it = s.unexpected.begin(); it != s.unexpected.end(); ++it) {
    if (it->src == src && it->tag == tag) {
      determine(self, req, std::max(t0, it->arrival));
      s.unexpected.erase(it);
      matched = true;
      break;
    }
  }
  // Rendezvous senders waiting for this post.
  if (!matched) {
    for (auto it = s.rendezvous.begin(); it != s.rendezvous.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        const Seconds start =
            std::max(it->sender_ready + mpi.rendezvous_overhead, t0);
        const Seconds arrival = dispatch(it->src, self, it->bytes, start);
        determine(self, req, arrival);
        determine(it->src, it->send_request_id, arrival);
        const int sender = it->src;
        s.rendezvous.erase(it);
        matched = true;
        maybe_wake(sender);
        break;
      }
    }
  }
  if (!matched) {
    s.posted.push_back(PostedRecv{.src = src,
                                  .tag = tag,
                                  .bytes = bytes,
                                  .request_id = req,
                                  .post_time = t0});
  }
  s.proc->advance(mpi.nonblocking_post_overhead);
  return req;
}

void World::collective_enter(int rank, Routine routine, int root, Bytes bytes) {
  RankState& s = states_[static_cast<std::size_t>(rank)];
  const auto idx = static_cast<std::size_t>(s.next_collective++);
  if (collectives_.size() <= idx) {
    collectives_.resize(idx + 1);
    collectives_[idx] =
        CollectiveSlot{.routine = routine, .root = root, .bytes = bytes};
  }
  CollectiveSlot& slot = collectives_[idx];
  if (slot.arrived == 0) {
    slot.routine = routine;
    slot.root = root;
    slot.bytes = bytes;
  } else {
    SWAPP_ASSERT(slot.routine == routine,
                 "collective mismatch: ranks disagree on the routine");
  }
  slot.arrived += 1;
  slot.max_entry = std::max(slot.max_entry, engine_.now());

  if (slot.arrived == nranks_) {
    const Seconds done =
        slot.max_entry +
        collective_cost(machine_, network_, routine, bytes, nranks_);
    // Wake everyone else (they are all blocked in this slot), then advance
    // this last-arriving rank to the completion time.
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank) continue;
      states_[static_cast<std::size_t>(r)].proc->unblock_at(done);
    }
    if (done > engine_.now()) s.proc->advance(done - engine_.now());
  } else {
    s.proc->block();
  }
}

World::ProfiledCall World::call_begin(int rank) {
  RankState& s = states_[static_cast<std::size_t>(rank)];
  const Seconds entry = engine_.now();
  s.breakdown.compute += entry - s.last_mpi_exit;
  return ProfiledCall{.entry = entry};
}

void World::call_end(int rank, Routine routine, Bytes bytes, ProfiledCall call,
                     double in_flight, double rank_distance) {
  RankState& s = states_[static_cast<std::size_t>(rank)];
  const Seconds exit = engine_.now();
  const Seconds elapsed = exit - call.entry;
  s.breakdown.communication += elapsed;
  s.last_mpi_exit = exit;

  RoutineProfile& rp = profile_.routines[routine];
  rp.routine = routine;
  rp.total_elapsed += elapsed;
  rp.total_calls += 1;
  SizeBucket& bucket = rp.by_size[bytes];
  const double prior = static_cast<double>(bucket.calls);
  bucket.bytes = bytes;
  bucket.avg_in_flight =
      (bucket.avg_in_flight * prior + in_flight) / (prior + 1.0);
  bucket.avg_rank_distance =
      (bucket.avg_rank_distance * prior + rank_distance) / (prior + 1.0);
  bucket.calls += 1;
  bucket.elapsed += elapsed;
}

void World::run(std::function<void(RankCtx&)> body) {
  SWAPP_REQUIRE(!ran_, "World::run may only be called once");
  ran_ = true;
  for (int r = 0; r < nranks_; ++r) {
    engine_.spawn("rank" + std::to_string(r),
                  [this, r, &body](sim::Process& proc) {
                    RankState& s = states_[static_cast<std::size_t>(r)];
                    s.proc = &proc;
                    body(*contexts_[static_cast<std::size_t>(r)]);
                    s.finish_time = engine_.now();
                    s.breakdown.compute += engine_.now() - s.last_mpi_exit;
                  });
  }
  engine_.run();
  build_profile();
}

void World::build_profile() {
  profile_.application = options_.app_name;
  profile_.ranks = nranks_;
  profile_.per_task.clear();
  profile_.per_task.reserve(states_.size());
  Seconds wall = 0.0;
  aggregate_counters_ = machine::PmuCounters{};
  for (const RankState& s : states_) {
    profile_.per_task.push_back(s.breakdown);
    wall = std::max(wall, s.finish_time);
    aggregate_counters_.accumulate(s.counters);
  }
  profile_.wall_time = wall;
}

Seconds World::wall_time() const {
  SWAPP_REQUIRE(ran_, "wall_time() before run()");
  return profile_.wall_time;
}

const MpiProfile& World::profile() const {
  SWAPP_REQUIRE(ran_, "profile() before run()");
  return profile_;
}

const machine::PmuCounters& World::counters() const {
  SWAPP_REQUIRE(ran_, "counters() before run()");
  return aggregate_counters_;
}

}  // namespace swapp::mpi
