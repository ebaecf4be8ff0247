// Unit and integration tests for the simulated MPI runtime.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "machine/machine.h"
#include "mpi/collectives.h"
#include "mpi/world.h"
#include "support/error.h"

namespace swapp::mpi {
namespace {

machine::Machine test_machine() { return machine::make_power5_hydra(); }

TEST(MpiWorld, PingPongCompletesAndTakesTime) {
  World world(test_machine(), 2);
  world.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1024);
      ctx.recv(1, 1024);
    } else {
      ctx.recv(0, 1024);
      ctx.send(0, 1024);
    }
  });
  EXPECT_GT(world.wall_time(), 0.0);
  // Two eager messages within a node: microseconds, not milliseconds.
  EXPECT_LT(world.wall_time(), 1e-3);
}

TEST(MpiWorld, MessageOrderIsFifoPerSourceAndTag) {
  // Two messages with the same tag must match posted receives in order.
  World world(test_machine(), 2);
  world.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 100);
      ctx.send(1, 200);
    } else {
      ctx.recv(0, 100);
      ctx.recv(0, 200);
    }
  });
  const auto& recv = world.profile().routines.at(Routine::kRecv);
  EXPECT_EQ(recv.total_calls, 2u);
}

TEST(MpiWorld, RendezvousLargerThanEagerWorks) {
  const machine::Machine m = test_machine();
  World world(m, 2);
  const Bytes big = m.mpi.eager_threshold * 8;
  world.run([big](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, big);
    } else {
      ctx.compute_for(1e-3);  // sender must wait for this late recv
      ctx.recv(0, big);
    }
  });
  // The sender is held by the rendezvous until the receiver posts at 1 ms.
  EXPECT_GT(world.wall_time(), 1e-3);
}

TEST(MpiWorld, LargerMessagesTakeLonger) {
  const auto time_for = [](Bytes bytes) {
    World world(test_machine(), 2);
    world.run([bytes](RankCtx& ctx) {
      if (ctx.rank() == 0) ctx.send(1, bytes);
      else ctx.recv(0, bytes);
    });
    return world.wall_time();
  };
  EXPECT_LT(time_for(1024), time_for(512 * 1024));
  EXPECT_LT(time_for(512 * 1024), time_for(4 * 1024 * 1024));
}

TEST(MpiWorld, InterNodeSlowerThanIntraNode) {
  const machine::Machine m = test_machine();
  const auto pingpong = [&](int peer) {
    World world(m, peer + 1);
    world.run([peer](RankCtx& ctx) {
      if (ctx.rank() == 0) {
        ctx.send(peer, 8192);
        ctx.recv(peer, 8192);
      } else if (ctx.rank() == peer) {
        ctx.recv(0, 8192);
        ctx.send(0, 8192);
      }
    });
    return world.wall_time();
  };
  // Rank 1 shares the node with rank 0; rank 16 is on the next node.
  EXPECT_LT(pingpong(1), pingpong(16));
}

TEST(MpiWorld, NonblockingExchangeCompletes) {
  World world(test_machine(), 4);
  world.run([](RankCtx& ctx) {
    const int left = (ctx.rank() + ctx.size() - 1) % ctx.size();
    const int right = (ctx.rank() + 1) % ctx.size();
    std::array<Request, 4> reqs = {
        ctx.irecv(left, 4096, 7),
        ctx.irecv(right, 4096, 7),
        ctx.isend(right, 4096, 7),
        ctx.isend(left, 4096, 7),
    };
    ctx.waitall(reqs);
  });
  const auto& waitall = world.profile().routines.at(Routine::kWaitall);
  EXPECT_EQ(waitall.total_calls, 4u);
  // Two receives were in flight per waitall.
  EXPECT_NEAR(waitall.by_size.begin()->second.avg_in_flight, 2.0, 1e-9);
}

TEST(MpiWorld, WaitallCapturesImbalanceWait) {
  // Rank 1 computes 10 ms before sending; rank 0 waits in Waitall.
  World world(test_machine(), 2);
  world.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      std::array<Request, 1> reqs = {ctx.irecv(1, 2048)};
      ctx.waitall(reqs);
    } else {
      ctx.compute_for(10e-3);
      ctx.send(0, 2048);
    }
  });
  const auto& profile = world.profile();
  const Seconds waitall_time =
      profile.routines.at(Routine::kWaitall).total_elapsed;
  EXPECT_GT(waitall_time, 9e-3);  // nearly all of the 10 ms imbalance
  // Rank 0's breakdown shows it as communication, not compute.
  EXPECT_GT(profile.per_task[0].communication, 9e-3);
  EXPECT_LT(profile.per_task[0].compute, 1e-3);
}

TEST(MpiWorld, BarrierSynchronisesRanks) {
  World world(test_machine(), 8);
  std::vector<double> after(8, 0.0);
  world.run([&after](RankCtx& ctx) {
    ctx.compute_for(0.001 * (ctx.rank() + 1));
    ctx.barrier();
    after[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  // Everyone leaves the barrier at the same instant.
  for (int r = 1; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(after[static_cast<std::size_t>(r)], after[0]);
  }
  // Which is after the slowest rank's 8 ms of compute.
  EXPECT_GE(after[0], 0.008);
}

TEST(MpiWorld, CollectivesRecordProfiles) {
  World world(test_machine(), 16);
  world.run([](RankCtx& ctx) {
    ctx.bcast(0, 4096);
    ctx.reduce(0, 1024);
    ctx.allreduce(64);
  });
  const auto& profile = world.profile();
  EXPECT_EQ(profile.routines.at(Routine::kBcast).total_calls, 16u);
  EXPECT_EQ(profile.routines.at(Routine::kReduce).total_calls, 16u);
  EXPECT_EQ(profile.routines.at(Routine::kAllreduce).total_calls, 16u);
}

TEST(MpiWorld, ProfileConservation) {
  // compute + communication per task ≈ task finish time.
  World world(test_machine(), 4);
  world.run([](RankCtx& ctx) {
    ctx.compute_for(0.01);
    ctx.barrier();
    ctx.compute_for(0.005);
    ctx.allreduce(4096);
  });
  const auto& profile = world.profile();
  for (const auto& task : profile.per_task) {
    EXPECT_NEAR(task.total(), profile.wall_time, 1e-9);
  }
}

TEST(MpiWorld, DeterministicAcrossRuns) {
  const auto run_once = [] {
    World world(test_machine(), 32);
    world.run([](RankCtx& ctx) {
      const int right = (ctx.rank() + 1) % ctx.size();
      const int left = (ctx.rank() + ctx.size() - 1) % ctx.size();
      for (int step = 0; step < 5; ++step) {
        ctx.compute_for(1e-4 * (1 + ctx.rank() % 3));
        std::array<Request, 2> reqs = {ctx.irecv(left, 8192, step),
                                       ctx.isend(right, 8192, step)};
        ctx.waitall(reqs);
      }
      ctx.allreduce(64);
    });
    return world.wall_time();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Collectives, CostGrowsWithRanksAndBytes) {
  const machine::Machine m = test_machine();
  const net::Network net(m.network, 8);
  const Seconds small = collective_cost(m, net, Routine::kBcast, 64, 16);
  const Seconds more_ranks = collective_cost(m, net, Routine::kBcast, 64, 128);
  const Seconds more_bytes =
      collective_cost(m, net, Routine::kBcast, 1_MiB, 16);
  EXPECT_LT(small, more_ranks);
  EXPECT_LT(small, more_bytes);
}

TEST(Collectives, BgpTreeBeatsTorusP2PBcast) {
  const machine::Machine bgp = machine::make_bluegene_p();
  const net::Network net(bgp.network, 32);
  const Seconds with_tree =
      collective_cost(bgp, net, Routine::kBcast, 1024, 128);
  machine::Machine no_tree = bgp;
  no_tree.mpi.use_collective_tree = false;
  const Seconds without_tree =
      collective_cost(no_tree, net, Routine::kBcast, 1024, 128);
  EXPECT_LT(with_tree, without_tree);
}


TEST(MpiWorld, RendezvousBothOrders) {
  // Sender first, then receiver — and the reverse — both complete with the
  // same payload and deterministic times.
  const machine::Machine m = test_machine();
  const Bytes big = m.mpi.eager_threshold * 4;
  const auto run_order = [&](bool sender_first) {
    World world(m, 2);
    world.run([&, big](RankCtx& ctx) {
      if (ctx.rank() == 0) {
        if (!sender_first) ctx.compute_for(1e-3);
        ctx.send(1, big);
      } else {
        if (sender_first) ctx.compute_for(1e-3);
        ctx.recv(0, big);
      }
    });
    return world.wall_time();
  };
  EXPECT_GT(run_order(true), 1e-3);
  EXPECT_GT(run_order(false), 1e-3);
}

TEST(MpiWorld, TagsDisambiguateConcurrentMessages) {
  // Two different-size messages between the same pair, matched by tag in
  // the opposite order they were sent.
  World world(test_machine(), 2);
  world.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 100, /*tag=*/1);
      ctx.send(1, 20000, /*tag=*/2);
    } else {
      ctx.recv(0, 20000, /*tag=*/2);
      ctx.recv(0, 100, /*tag=*/1);
    }
  });
  EXPECT_EQ(world.profile().routines.at(Routine::kRecv).total_calls, 2u);
}

TEST(MpiWorld, SendrecvRing) {
  World world(test_machine(), 8);
  world.run([](RankCtx& ctx) {
    const int right = (ctx.rank() + 1) % ctx.size();
    const int left = (ctx.rank() + ctx.size() - 1) % ctx.size();
    for (int i = 0; i < 3; ++i) ctx.sendrecv(right, 4096, left, 4096);
  });
  const auto& sr = world.profile().routines.at(Routine::kSendrecv);
  EXPECT_EQ(sr.total_calls, 24u);
}

TEST(MpiWorld, WaitallRecordsPeerDistance) {
  // Rank 0 exchanges with rank 1 (distance 1) — recorded in the bucket.
  World world(test_machine(), 4);
  world.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      std::array<Request, 2> reqs = {ctx.irecv(1, 512, 0),
                                     ctx.isend(1, 512, 1)};
      ctx.waitall(reqs);
    } else if (ctx.rank() == 1) {
      std::array<Request, 2> reqs = {ctx.irecv(0, 512, 1),
                                     ctx.isend(0, 512, 0)};
      ctx.waitall(reqs);
    }
  });
  const auto& wa = world.profile().routines.at(Routine::kWaitall);
  EXPECT_NEAR(wa.by_size.begin()->second.avg_rank_distance, 1.0, 1e-9);
}

TEST(MpiWorld, WaitallOverManyOutstandingRequests) {
  // Each rank holds 64 outstanding requests (32 receives, 32 sends, every
  // tag distinct) and waits on them in reverse post order.
  constexpr int kPerKind = 32;
  constexpr Bytes kBytes = 1024;
  World world(test_machine(), 2);
  bool rejected_completed = false;
  world.run([&](RankCtx& ctx) {
    const int peer = 1 - ctx.rank();
    const int recv_base = ctx.rank() == 0 ? 0 : kPerKind;
    const int send_base = ctx.rank() == 0 ? kPerKind : 0;
    std::vector<Request> reqs;
    for (int i = 0; i < kPerKind; ++i) {
      reqs.push_back(ctx.irecv(peer, kBytes, recv_base + i));
    }
    for (int i = 0; i < kPerKind; ++i) {
      reqs.push_back(ctx.isend(peer, kBytes, send_base + i));
    }
    const std::vector<Request> reversed(reqs.rbegin(), reqs.rend());
    ctx.waitall(reversed);
    if (ctx.rank() == 0) {
      const std::array<Request, 1> done = {reqs.front()};
      EXPECT_THROW(ctx.waitall(done), InvalidArgument);
      rejected_completed = true;
    }
  });
  EXPECT_TRUE(rejected_completed);
  const auto& wa = world.profile().routines.at(Routine::kWaitall);
  EXPECT_EQ(wa.total_calls, 2u);
  ASSERT_EQ(wa.by_size.size(), 1u);
  const SizeBucket& bucket = wa.by_size.begin()->second;
  EXPECT_EQ(bucket.bytes, kBytes);
  EXPECT_EQ(bucket.calls, 2u);
  EXPECT_NEAR(bucket.avg_in_flight, kPerKind, 1e-9);
  EXPECT_NEAR(bucket.avg_rank_distance, 1.0, 1e-9);
  EXPECT_GT(bucket.elapsed, 0.0);
  EXPECT_EQ(world.profile().routines.at(Routine::kIrecv).total_calls,
            2u * kPerKind);
  EXPECT_EQ(world.profile().routines.at(Routine::kIsend).total_calls,
            2u * kPerKind);
}

TEST(MpiWorld, EmptyWaitallIsHarmless) {
  World world(test_machine(), 2);
  world.run([](RankCtx& ctx) {
    std::vector<Request> none;
    ctx.waitall(none);
    ctx.barrier();
  });
  EXPECT_GT(world.wall_time(), 0.0);
}

TEST(MpiWorld, AlltoallSlowerThanAllgatherPerByte) {
  // Pairwise all-to-all pays contention that the ring allgather does not.
  const machine::Machine m = test_machine();
  const auto coll_time = [&](bool alltoall) {
    World world(m, 64);
    world.run([alltoall](RankCtx& ctx) {
      if (alltoall) ctx.alltoall(64_KiB);
      else ctx.allgather(64_KiB);
    });
    return world.wall_time();
  };
  EXPECT_GT(coll_time(true), coll_time(false) * 0.5);  // same order at least
}

TEST(MpiWorld, NicSharingSlowsConcurrentSenders) {
  // 8 ranks on one node all sending to the next node serialise on the NIC;
  // a single sender does not.
  const machine::Machine m = test_machine();
  const auto exchange_time = [&](int senders) {
    World world(m, 32);
    world.run([senders](RankCtx& ctx) {
      const Bytes bytes = 256_KiB;
      if (ctx.rank() < senders) {
        ctx.send(16 + ctx.rank(), bytes);
      } else if (ctx.rank() >= 16 && ctx.rank() < 16 + senders) {
        ctx.recv(ctx.rank() - 16, bytes);
      }
    });
    return world.wall_time();
  };
  EXPECT_GT(exchange_time(8), 4.0 * exchange_time(1));
}

TEST(MpiWorld, SmtModeChangesComputeOnly) {
  workload::Kernel k;
  k.instructions_per_point = 500.0;
  const auto run_mode = [&](machine::SmtMode mode) {
    World world(test_machine(), 2,
                World::Options{.smt = mode, .app_name = "smt-test"});
    world.run([&k](RankCtx& ctx) {
      ctx.compute(k, 1e5);
      ctx.barrier();
    });
    return world.profile().mean_compute();
  };
  EXPECT_GT(run_mode(machine::SmtMode::kSmt),
            run_mode(machine::SmtMode::kSingleThread));
}

TEST(MpiWorld, ComputeAccruesCounters) {
  workload::Kernel k;
  k.name = "stencil";
  k.instructions_per_point = 100.0;
  World world(test_machine(), 4);
  world.run([&k](RankCtx& ctx) { ctx.compute(k, 1e5); });
  EXPECT_GT(world.counters().instructions, 0.0);
  EXPECT_GT(world.counters().cycles, 0.0);
  EXPECT_GT(world.wall_time(), 0.0);
}

}  // namespace
}  // namespace swapp::mpi
