// Tests for the projection server: flag parsing, frame round-trips over a
// socketpair (truncation, oversize, garbage payloads), and a live server —
// admission backpressure, error containment on a shared connection and
// between queued requests, clients sharing GA searches through the resident
// cache, and graceful shutdown that drains in-flight work.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/ga.h"
#include "experiments/lab.h"
#include "imb/suite.h"
#include "machine/machine.h"
#include "nas/nas_app.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/options.h"
#include "server/protocol.h"
#include "server/server.h"
#include "service/batch_format.h"
#include "service/service.h"
#include "support/error.h"
#include "sweep/result.h"
#include "sweep/runner.h"
#include "sweep/sweep.h"

namespace swapp {
namespace {

using experiments::collect_base_data;
using experiments::collect_spec_library;

const std::vector<int> kCounts = {8, 16, 32};
const std::vector<Bytes> kSizes = {512, 16_KiB, 256_KiB};

// --- options ---------------------------------------------------------------

TEST(ServerOptionsTest, QueueDepthAcceptsPositiveIntegers) {
  EXPECT_EQ(server::parse_queue_depth("1"), 1u);
  EXPECT_EQ(server::parse_queue_depth("64"), 64u);
}

TEST(ServerOptionsTest, QueueDepthRejectsWithOffendingTextQuoted) {
  for (const std::string bad : {"0", "-3", "abc", "12x", "", "4.5"}) {
    try {
      server::parse_queue_depth(bad);
      FAIL() << "accepted '" << bad << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ServerOptionsTest, WatchSecondsAcceptsOneSecondToOneDay) {
  EXPECT_EQ(server::parse_watch_seconds("1"), 1u);
  EXPECT_EQ(server::parse_watch_seconds("30"), 30u);
  EXPECT_EQ(server::parse_watch_seconds("86400"), 86400u);
}

TEST(ServerOptionsTest, WatchSecondsRejectsWithOffendingTextQuoted) {
  for (const std::string bad : {"0", "-1", "86401", "1.5", "5s", "", " 2"}) {
    try {
      server::parse_watch_seconds(bad);
      FAIL() << "accepted '" << bad << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ServerOptionsTest, ByteSizeAcceptsSuffixes) {
  EXPECT_EQ(server::parse_byte_size("512"), 512u);
  EXPECT_EQ(server::parse_byte_size("64k"), 64u * 1024);
  EXPECT_EQ(server::parse_byte_size("2M"), 2u * 1024 * 1024);
  EXPECT_EQ(server::parse_byte_size("1g"), 1024ull * 1024 * 1024);
}

TEST(ServerOptionsTest, ByteSizeRejectsWithOffendingTextQuoted) {
  for (const std::string bad : {"0", "-1", "k", "10t", "", "1.5m"}) {
    try {
      server::parse_byte_size(bad);
      FAIL() << "accepted '" << bad << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ServerOptionsTest, SocketPathRejectsEmptyAndOverlong) {
  EXPECT_EQ(server::parse_socket_path("/tmp/x.sock"),
            std::filesystem::path("/tmp/x.sock"));
  EXPECT_THROW(server::parse_socket_path(""), InvalidArgument);
  const std::string longpath(server::kMaxSocketPath + 1, 'a');
  try {
    server::parse_socket_path(longpath);
    FAIL() << "accepted an overlong path";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(longpath), std::string::npos);
  }
}

// --- framing ---------------------------------------------------------------

/// A connected AF_UNIX socket pair for driving frames without a server.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  void close_writer() {
    ::close(fds[0]);
    fds[0] = -1;
  }
};

TEST(ProtocolTest, FrameRoundTripsIncludingEmptyPayload) {
  SocketPair pair;
  for (const std::string& payload : {std::string("hello frames"),
                                     std::string(), std::string(5000, 'x')}) {
    server::write_frame(pair.fds[0], payload);
    const server::Frame frame = server::read_frame(pair.fds[1], 1 << 20);
    ASSERT_EQ(frame.status, server::FrameStatus::kOk);
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(ProtocolTest, CleanCloseReadsAsEof) {
  SocketPair pair;
  pair.close_writer();
  EXPECT_EQ(server::read_frame(pair.fds[1], 1024).status,
            server::FrameStatus::kEof);
}

TEST(ProtocolTest, MidHeaderCloseReadsAsTruncated) {
  SocketPair pair;
  const char partial[2] = {0, 0};
  ASSERT_EQ(::send(pair.fds[0], partial, sizeof partial, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof partial));
  pair.close_writer();
  EXPECT_EQ(server::read_frame(pair.fds[1], 1024).status,
            server::FrameStatus::kTruncated);
}

TEST(ProtocolTest, MidPayloadCloseReadsAsTruncated) {
  SocketPair pair;
  const unsigned char header[4] = {0, 0, 0, 100};  // announces 100 bytes
  ASSERT_EQ(::send(pair.fds[0], header, sizeof header, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof header));
  ASSERT_EQ(::send(pair.fds[0], "short", 5, MSG_NOSIGNAL), 5);
  pair.close_writer();
  EXPECT_EQ(server::read_frame(pair.fds[1], 1024).status,
            server::FrameStatus::kTruncated);
}

TEST(ProtocolTest, OversizedFrameIsDrainedAndNextFrameReadable) {
  SocketPair pair;
  server::write_frame(pair.fds[0], std::string(2048, 'z'));
  server::write_frame(pair.fds[0], "after");
  const server::Frame big = server::read_frame(pair.fds[1], 1024);
  EXPECT_EQ(big.status, server::FrameStatus::kOversized);
  const server::Frame next = server::read_frame(pair.fds[1], 1024);
  ASSERT_EQ(next.status, server::FrameStatus::kOk);
  EXPECT_EQ(next.payload, "after");
}

TEST(ProtocolTest, ResponseDocumentRoundTrips) {
  server::Response response;
  response.ok = true;
  response.results.push_back(
      server::ResultRow{"LU/C", "IBM POWER6 575", 16, 1.25, 0.5, 1.75});
  response.phases.push_back(server::PhaseRow{"plan", 0.001});
  response.artifacts.push_back(server::ArtifactRow{"spec-library", "disk"});
  const server::Response back =
      server::decode_response(server::encode_response(response));
  ASSERT_TRUE(back.ok);
  ASSERT_EQ(back.results.size(), 1u);
  EXPECT_EQ(back.results[0].app, "LU/C");
  EXPECT_EQ(back.results[0].tasks, 16);
  EXPECT_EQ(back.results[0].compute_s, 1.25);  // exact double round-trip
  EXPECT_EQ(back.results[0].total_s, 1.75);
  ASSERT_EQ(back.phases.size(), 1u);
  EXPECT_EQ(back.phases[0].phase, "plan");
  ASSERT_EQ(back.artifacts.size(), 1u);
  EXPECT_EQ(back.artifacts[0].source, "disk");
}

TEST(ProtocolTest, ErrorDocumentRoundTrips) {
  const server::Response back = server::decode_response(server::encode_response(
      server::Response::failure(server::ErrorCode::kBusy, "queue full")));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, server::ErrorCode::kBusy);
  EXPECT_EQ(back.message, "queue full");
}

TEST(ProtocolTest, GarbageResponseThrows) {
  EXPECT_THROW(server::decode_response("not a record document"), Error);
}

// --- live server -----------------------------------------------------------

/// Polls `done` for up to five seconds.
template <typename Predicate>
bool eventually(Predicate done) {
  for (int i = 0; i < 500; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// Holds the server's scheduler inside the first batch it runs: the wrapped
/// ServiceSetup parks there until `open()`, so a test can queue requests
/// behind a run in flight deterministically.  Declare a `Release` after the
/// server, so a failed assertion still opens the gate before the server's
/// destructor drains the queue.
class SchedulerGate {
 public:
  server::Server::ServiceSetup around(server::Server::ServiceSetup setup) {
    return [this, setup](service::ProjectionService& svc,
                         const std::vector<service::BatchRow>& rows) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        parked_ = true;
        cv_.wait(lock, [&] { return open_; });
      }
      setup(svc, rows);
    };
  }
  bool parked() {
    std::lock_guard<std::mutex> lock(mutex_);
    return parked_;
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  struct Release {
    SchedulerGate& gate;
    ~Release() { gate.open(); }
  };

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool open_ = false;
};

/// Live-server fixture: one cache directory per suite, so the first test
/// collects the (small-grid) artifacts cold and every later test runs warm
/// through each server's resident cache over the same directory — which also
/// exercises the cache sharing the daemon exists for.
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Keyed by pid, not gtest's random seed: ctest -j runs every test in its
    // own process with the default seed 0, and suites sharing one directory
    // remove_all each other's live sockets.
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("swapp-server-test-" + std::to_string(::getpid())));
    std::filesystem::remove_all(*dir_);
    std::filesystem::create_directories(*dir_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  /// Cheap per-batch service setup: small measurement grids, LU/C only.
  static server::Server::ServiceSetup cheap_setup() {
    const machine::Machine base = machine::make_power5_hydra();
    return [base](service::ProjectionService& svc,
                  const std::vector<service::BatchRow>& rows) {
      (void)rows;
      svc.set_spec_collector(
          [](const machine::Machine& b,
             const std::vector<machine::Machine>& t,
             const std::vector<int>& counts) {
            return collect_spec_library(b, t, counts);
          });
      svc.set_imb_collector([](const machine::Machine& m) {
        return imb::measure_database(m, kCounts, kSizes);
      });
      svc.add_app("LU/C",
                  service::describe_app_inputs("LU-MZ.C", base, 1, {4, 8, 16},
                                               {4, 8, 16}),
                  [base] {
                    return collect_base_data(
                        nas::NasApp(nas::Benchmark::kLU,
                                    nas::ProblemClass::kC),
                        base, {4, 8, 16}, {4, 8, 16});
                  });
    };
  }

  static std::string only_lu(const service::BatchRow& row) {
    if (row.app != "LU/C") {
      return "this server only serves LU/C, got " + row.app;
    }
    return {};
  }

  static server::ServerConfig config(const std::string& socket_name) {
    server::ServerConfig cfg;
    cfg.socket_path = *dir_ / socket_name;
    cfg.service.cache_dir = *dir_ / "cache";
    // Fixed SPEC grid: every batch mix shares one library artifact.
    cfg.service.spec_task_counts = {4, 8, 16};
    return cfg;
  }

  static std::string lu_request(int tasks, int reference, int threads = 1) {
    service::BatchRow row;
    row.app = "LU/C";
    row.target = machine::make_power6_575().name;
    row.tasks = tasks;
    row.threads = threads;
    row.reference = reference;
    std::ostringstream payload;
    service::write_batch_requests(payload, {row});
    return payload.str();
  }

  static std::filesystem::path* dir_;
};

std::filesystem::path* ServerTest::dir_ = nullptr;

TEST_F(ServerTest, ServesARequestAndDrainsOnStop) {
  server::Server srv(machine::make_power5_hydra(), config("round.sock"),
                     cheap_setup(), &only_lu);
  srv.start();
  {
    server::Client client(*dir_ / "round.sock");
    const server::Response response = client.call(lu_request(8, 16));
    ASSERT_TRUE(response.ok) << response.message;
    ASSERT_EQ(response.results.size(), 1u);
    // Results carry the profile's app name, exactly as `swapp batch` prints.
    EXPECT_EQ(response.results[0].app, "LU-MZ.C");
    EXPECT_EQ(response.results[0].tasks, 8);
    EXPECT_GT(response.results[0].total_s, 0.0);
    EXPECT_FALSE(response.phases.empty());
    EXPECT_FALSE(response.artifacts.empty());
  }
  srv.request_stop();
  srv.wait();
  EXPECT_EQ(srv.requests_served(), 1u);
  EXPECT_EQ(srv.batches_run(), 1u);
  EXPECT_EQ(srv.connections_accepted(), 1u);
  // The socket file is gone after a graceful exit.
  EXPECT_FALSE(std::filesystem::exists(*dir_ / "round.sock"));
}

TEST_F(ServerTest, GarbagePayloadGetsTypedErrorAndConnectionSurvives) {
  server::Server srv(machine::make_power5_hydra(), config("bad.sock"),
                     cheap_setup(), &only_lu);
  srv.start();
  {
    server::Client client(*dir_ / "bad.sock");
    const server::Response bad = client.call("definitely not a record doc");
    ASSERT_FALSE(bad.ok);
    EXPECT_EQ(bad.error, server::ErrorCode::kBadRequest);

    // Same connection, unknown target: still a typed rejection.
    service::BatchRow row;
    row.app = "LU/C";
    row.target = "No Such Machine";
    row.tasks = 8;
    std::ostringstream payload;
    service::write_batch_requests(payload, {row});
    const server::Response unknown = client.call(payload.str());
    ASSERT_FALSE(unknown.ok);
    EXPECT_EQ(unknown.error, server::ErrorCode::kBadRequest);
    EXPECT_NE(unknown.message.find("No Such Machine"), std::string::npos);

    // A validator rejection quotes its own message.
    service::BatchRow sp = row;
    sp.app = "SP/C";
    sp.target = machine::make_power6_575().name;
    std::ostringstream payload2;
    service::write_batch_requests(payload2, {sp});
    const server::Response refused = client.call(payload2.str());
    ASSERT_FALSE(refused.ok);
    EXPECT_EQ(refused.error, server::ErrorCode::kBadRequest);
    EXPECT_NE(refused.message.find("only serves LU/C"), std::string::npos);

    // And after all of that the connection still serves real work.
    const server::Response good = client.call(lu_request(8, 16));
    EXPECT_TRUE(good.ok) << good.message;
  }
  EXPECT_GE(srv.protocol_errors(), 3u);
  srv.request_stop();
  srv.wait();
}

TEST_F(ServerTest, OversizedFrameGetsTypedErrorAndConnectionSurvives) {
  server::ServerConfig cfg = config("oversize.sock");
  cfg.max_request_bytes = 4096;
  server::Server srv(machine::make_power5_hydra(), cfg, cheap_setup(),
                     &only_lu);
  srv.start();
  const int fd = server::connect_unix(cfg.socket_path);
  server::write_frame(fd, std::string(10000, 'x'));
  const server::Frame reply = server::read_frame(fd, 1 << 20);
  ASSERT_EQ(reply.status, server::FrameStatus::kOk);
  const server::Response response = server::decode_response(reply.payload);
  ASSERT_FALSE(response.ok);
  EXPECT_EQ(response.error, server::ErrorCode::kOversized);

  server::write_frame(fd, lu_request(8, 16));
  const server::Frame reply2 = server::read_frame(fd, 1 << 20);
  ASSERT_EQ(reply2.status, server::FrameStatus::kOk);
  EXPECT_TRUE(server::decode_response(reply2.payload).ok);
  ::close(fd);
  srv.request_stop();
  srv.wait();
}

TEST_F(ServerTest, TruncatedFrameClosesConnectionButServerSurvives) {
  server::Server srv(machine::make_power5_hydra(), config("trunc.sock"),
                     cheap_setup(), &only_lu);
  srv.start();
  {
    const int fd = server::connect_unix(*dir_ / "trunc.sock");
    const unsigned char header[4] = {0, 0, 1, 0};  // announces 256 bytes
    ASSERT_EQ(::send(fd, header, sizeof header, MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof header));
    ::close(fd);  // vanish mid-frame
  }
  ASSERT_TRUE(eventually([&] { return srv.protocol_errors() >= 1; }));

  // A fresh connection is served normally.
  server::Client client(*dir_ / "trunc.sock");
  EXPECT_TRUE(client.call(lu_request(8, 16)).ok);
  srv.request_stop();
  srv.wait();
}

TEST_F(ServerTest, FullQueueRejectsWithBusy) {
  server::ServerConfig cfg = config("busy.sock");
  cfg.max_queue = 1;
  // The scheduler parks inside the first batch, so the second admitted
  // batch sits in the queue's only slot deterministically.
  SchedulerGate gate;
  server::Server srv(machine::make_power5_hydra(), cfg,
                     gate.around(cheap_setup()), &only_lu);
  SchedulerGate::Release release{gate};
  srv.start();

  server::Response running;
  server::Response queued;
  std::thread first([&] {
    server::Client client(cfg.socket_path);
    running = client.call(lu_request(8, 16));
  });
  ASSERT_TRUE(eventually([&] { return gate.parked(); }));
  std::thread second([&] {
    server::Client client(cfg.socket_path);
    queued = client.call(lu_request(8, 16));
  });
  // Wait until that batch occupies the queue's only slot, then overflow it.
  ASSERT_TRUE(eventually([&] { return srv.queue_depth() == 1; }));
  {
    server::Client overflow(cfg.socket_path);
    const server::Response r = overflow.call(lu_request(16, 16));
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, server::ErrorCode::kBusy);
    EXPECT_NE(r.message.find("retry"), std::string::npos);
  }
  EXPECT_EQ(srv.busy_rejections(), 1u);

  // Shutdown drains the queued batch: its client still gets an answer.
  srv.request_stop();
  gate.open();
  srv.wait();
  first.join();
  second.join();
  ASSERT_TRUE(running.ok) << running.message;
  ASSERT_TRUE(queued.ok) << queued.message;
  EXPECT_EQ(queued.results.size(), 1u);
}

TEST_F(ServerTest, SecondClientsRowComesFromTheResidentCache) {
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  // A cache directory of its own: the first client's search must run here.
  server::ServerConfig cfg = config("resident.sock");
  cfg.service.cache_dir = *dir_ / "resident-cache";
  SchedulerGate gate;
  server::Server srv(machine::make_power5_hydra(), cfg,
                     gate.around(cheap_setup()), &only_lu);
  SchedulerGate::Release release{gate};
  srv.start();

  // The second client's identical row queues behind the first one's run.
  server::Response r1, r2;
  std::thread a([&] {
    server::Client client(cfg.socket_path);
    r1 = client.call(lu_request(8, 16));
  });
  ASSERT_TRUE(eventually([&] { return gate.parked(); }));
  std::thread b([&] {
    server::Client client(cfg.socket_path);
    r2 = client.call(lu_request(8, 16));
  });
  ASSERT_TRUE(eventually([&] { return srv.queue_depth() == 1; }));
  gate.open();
  a.join();
  b.join();
  srv.request_stop();
  srv.wait();

  ASSERT_TRUE(r1.ok) << r1.message;
  ASSERT_TRUE(r2.ok) << r2.message;
  ASSERT_EQ(r1.results.size(), 1u);
  ASSERT_EQ(r2.results.size(), 1u);
  EXPECT_EQ(r1.results[0].total_s, r2.results[0].total_s);
  // Each request ran alone...
  EXPECT_EQ(srv.batches_run(), 2u);
  EXPECT_EQ(srv.requests_served(), 2u);
  // ...and the second read the surrogate the first one's search wrote.
  const auto surrogate_source = [](const server::Response& r) {
    std::string source;
    for (const server::ArtifactRow& note : r.artifacts) {
      if (note.name.rfind("surrogate (", 0) == 0) source += note.source + ";";
    }
    return source;
  };
  EXPECT_EQ(surrogate_source(r1), "computed;");
  EXPECT_EQ(surrogate_source(r2), "memory cache;");
  const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
  const obs::CounterValue* searches = snapshot.counter("ga.searches");
  ASSERT_NE(searches, nullptr);
  EXPECT_EQ(searches->value, 1u);
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
}

TEST_F(ServerTest, RunFailureFailsOnlyItsOwnRequest) {
  // Both requests pass admission, but the profile registered for LU/C is
  // single-threaded, so the two-thread request fails when it runs.  The
  // valid request queued with it still gets its own answer.
  server::ServerConfig cfg = config("isolate.sock");
  SchedulerGate gate;
  server::Server srv(machine::make_power5_hydra(), cfg,
                     gate.around(cheap_setup()), &only_lu);
  SchedulerGate::Release release{gate};
  srv.start();

  server::Response held, bad, good;
  std::thread holder([&] {
    server::Client client(cfg.socket_path);
    held = client.call(lu_request(8, 16));
  });
  ASSERT_TRUE(eventually([&] { return gate.parked(); }));
  std::thread bad_client([&] {
    server::Client client(cfg.socket_path);
    bad = client.call(lu_request(16, 0, /*threads=*/2));
  });
  ASSERT_TRUE(eventually([&] { return srv.queue_depth() == 1; }));
  std::thread good_client([&] {
    server::Client client(cfg.socket_path);
    good = client.call(lu_request(4, 0));
  });
  ASSERT_TRUE(eventually([&] { return srv.queue_depth() == 2; }));
  gate.open();
  holder.join();
  bad_client.join();
  good_client.join();
  srv.request_stop();
  srv.wait();

  EXPECT_TRUE(held.ok) << held.message;
  ASSERT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, server::ErrorCode::kInternal);
  EXPECT_NE(bad.message.find("thread count"), std::string::npos)
      << bad.message;
  ASSERT_TRUE(good.ok) << good.message;
  ASSERT_EQ(good.results.size(), 1u);
  EXPECT_EQ(good.results[0].tasks, 4);
  // Its artifact notes are its own run's: one search, at its own 4 tasks.
  std::vector<std::string> surrogates;
  for (const server::ArtifactRow& a : good.artifacts) {
    if (a.name.rfind("surrogate (", 0) == 0) surrogates.push_back(a.name);
  }
  EXPECT_EQ(surrogates, std::vector<std::string>{
                            "surrogate (LU-MZ.C @ IBM POWER6 575 / 4)"});
  EXPECT_EQ(srv.requests_served(), 2u);
}

TEST_F(ServerTest, DrainingServerAnswersShuttingDown) {
  server::Server srv(machine::make_power5_hydra(), config("drain.sock"),
                     cheap_setup(), &only_lu);
  srv.start();
  server::Client client(*dir_ / "drain.sock");
  EXPECT_TRUE(client.call(lu_request(8, 16)).ok);

  srv.request_stop();
  ASSERT_TRUE(eventually([&] { return srv.draining(); }));
  const server::Response refused = client.call(lu_request(16, 16));
  ASSERT_FALSE(refused.ok);
  EXPECT_EQ(refused.error, server::ErrorCode::kShuttingDown);
  srv.wait();
}

TEST_F(ServerTest, LiveSocketIsRefusedStaleSocketIsReplaced) {
  server::Server first(machine::make_power5_hydra(), config("twice.sock"),
                       cheap_setup(), &only_lu);
  first.start();
  {
    server::Server second(machine::make_power5_hydra(), config("twice.sock"),
                          cheap_setup(), &only_lu);
    EXPECT_THROW(second.start(), Error);
  }
  first.request_stop();
  first.wait();

  // A stale socket file (no listener behind it) is silently replaced.
  { std::ofstream stale(*dir_ / "twice.sock"); }
  server::Server third(machine::make_power5_hydra(), config("twice.sock"),
                       cheap_setup(), &only_lu);
  third.start();
  server::Client client(*dir_ / "twice.sock");
  EXPECT_TRUE(client.call(lu_request(8, 16)).ok);
  third.request_stop();
  third.wait();
}

// --- stats / health introspection -------------------------------------------

TEST(StatsProtocolTest, ReportEncodeDecodeRoundTripsEveryField) {
  server::StatsReport report;
  report.draining = true;
  report.uptime_s = 12.5;
  report.queue_depth = 3;
  report.queue_capacity = 64;
  report.inflight_batches = 1;
  report.inflight_rows = 7;
  report.connections = 11;
  report.requests = 42;
  report.batches = 9;
  report.busy_rejections = 2;
  report.protocol_errors = 1;
  report.stats_requests = 5;
  server::StatsScope scope;
  scope.name = "10s";
  scope.seconds = 9.75;
  scope.metrics.counters.push_back(obs::CounterValue{"server.requests", 42});
  scope.metrics.gauges.push_back(obs::GaugeValue{"server.queue_depth", 3.0});
  obs::HistogramValue h;
  h.name = "server.request_us";
  h.count = 10;
  h.sum = 1000.0;
  h.min = 50.0;
  h.max = 200.0;
  h.buckets[7] = 10;
  scope.metrics.histograms.push_back(h);
  report.scopes.push_back(scope);

  const server::StatsReport back =
      server::decode_stats_report(server::encode_stats_report(report));
  EXPECT_EQ(back.draining, true);
  EXPECT_DOUBLE_EQ(back.uptime_s, 12.5);
  EXPECT_EQ(back.queue_depth, 3u);
  EXPECT_EQ(back.queue_capacity, 64u);
  EXPECT_EQ(back.inflight_batches, 1u);
  EXPECT_EQ(back.inflight_rows, 7u);
  EXPECT_EQ(back.connections, 11u);
  EXPECT_EQ(back.requests, 42u);
  EXPECT_EQ(back.batches, 9u);
  EXPECT_EQ(back.busy_rejections, 2u);
  EXPECT_EQ(back.protocol_errors, 1u);
  EXPECT_EQ(back.stats_requests, 5u);
  ASSERT_EQ(back.scopes.size(), 1u);
  EXPECT_EQ(back.scopes[0].name, "10s");
  EXPECT_DOUBLE_EQ(back.scopes[0].seconds, 9.75);
  ASSERT_EQ(back.scopes[0].metrics.counters.size(), 1u);
  EXPECT_EQ(back.scopes[0].metrics.counters[0].value, 42u);
  ASSERT_EQ(back.scopes[0].metrics.histograms.size(), 1u);
  EXPECT_EQ(back.scopes[0].metrics.histograms[0].buckets, h.buckets);
  EXPECT_DOUBLE_EQ(back.scopes[0].metrics.histograms[0].sum, 1000.0);
}

TEST(StatsProtocolTest, ClassifierSeparatesStatsFromBatchAndRejectsMalformed) {
  const server::StatsRequest stats = server::classify_stats_request(
      server::encode_stats_request(server::StatsKind::kStats));
  EXPECT_TRUE(stats.is_stats);
  EXPECT_EQ(stats.kind, server::StatsKind::kStats);
  const server::StatsRequest health = server::classify_stats_request(
      server::encode_stats_request(server::StatsKind::kHealth));
  EXPECT_TRUE(health.is_stats);
  EXPECT_EQ(health.kind, server::StatsKind::kHealth);

  // A batch document (or garbage) is simply "not a stats request".
  EXPECT_FALSE(server::classify_stats_request("#swapp \"swapp-batch\" v1\n")
                   .is_stats);
  EXPECT_FALSE(server::classify_stats_request("garbage").is_stats);
  // But a document that *claims* to be swapp-stats must be well-formed.
  EXPECT_THROW(
      server::classify_stats_request("#swapp \"swapp-stats\" v1\nbogus\n"),
      Error);
}

TEST_F(ServerTest, StatsEndpointReportsQueueInflightAndWindowedLatency) {
  // A tiny slot keeps the ticker rotating fast enough that the 1s window
  // demonstrably covers the request served below.
  server::ServerConfig cfg = config("stats.sock");
  cfg.stats_slot = std::chrono::milliseconds(50);
  server::Server srv(machine::make_power5_hydra(), cfg, cheap_setup(),
                     &only_lu);
  // Exact always-on recording, exactly as `swapp serve` configures it.
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  srv.start();

  // Cold probe before any work: sane head, empty-but-present window scopes.
  const server::StatsReport cold = srv.stats_report(server::StatsKind::kStats);
  EXPECT_FALSE(cold.draining);
  EXPECT_GE(cold.uptime_s, 0.0);
  EXPECT_EQ(cold.queue_depth, 0u);
  EXPECT_EQ(cold.queue_capacity, cfg.max_queue);
  EXPECT_EQ(cold.inflight_batches, 0u);
  ASSERT_EQ(cold.scopes.size(), 4u);
  EXPECT_EQ(cold.scopes[0].name, "1s");
  EXPECT_EQ(cold.scopes[1].name, "10s");
  EXPECT_EQ(cold.scopes[2].name, "60s");
  EXPECT_EQ(cold.scopes[3].name, "lifetime");

  {
    server::Client client(*dir_ / "stats.sock");
    ASSERT_TRUE(client.call(lu_request(8, 16)).ok);
    // The stats answer travels the wire like any other response, but is
    // served inline on the connection thread.
    const server::StatsReport live = server::decode_stats_report(
        client.call_raw(server::encode_stats_request(
            server::StatsKind::kStats)));
    EXPECT_EQ(live.requests, 1u);
    EXPECT_EQ(live.batches, 1u);
    EXPECT_EQ(live.inflight_batches, 0u);
    EXPECT_EQ(live.stats_requests, 1u);
    ASSERT_EQ(live.scopes.size(), 4u);
    const server::StatsScope& lifetime = live.scopes.back();
    const obs::HistogramValue* request_us =
        lifetime.metrics.histogram("server.request_us");
    ASSERT_NE(request_us, nullptr);
    EXPECT_EQ(request_us->count, 1u);
    EXPECT_GT(request_us->quantile(0.5), 0.0);
    EXPECT_LE(request_us->quantile(0.5), request_us->quantile(0.99));
    // The request just ran, so the trailing 1s window must show it too —
    // scopes diff against the live snapshot, not the last rotation.
    const obs::HistogramValue* windowed =
        live.scopes[0].metrics.histogram("server.request_us");
    ASSERT_NE(windowed, nullptr);
    EXPECT_EQ(windowed->count, 1u);

    // The hot-path GA counters are exact totals: the row (8 tasks, one
    // search at reference 16) ran one default search, every restart of it
    // for every generation.
    const auto lifetime_count = [&](const std::string& name) {
      const obs::CounterValue* c = lifetime.metrics.counter(name);
      return c == nullptr ? std::uint64_t{0} : c->value;
    };
    const core::GaOptions ga;
    const std::uint64_t searches = lifetime_count("planner.searches");
    EXPECT_EQ(searches, 1u);
    EXPECT_EQ(lifetime_count("ga.searches"), searches);
    EXPECT_EQ(lifetime_count("ga.restarts"),
              searches * static_cast<std::uint64_t>(ga.restarts));
    EXPECT_EQ(lifetime_count("ga.generations"),
              searches * static_cast<std::uint64_t>(ga.restarts) *
                  static_cast<std::uint64_t>(ga.generations));

    // Health: same head, no metric scopes.
    const server::StatsReport health = server::decode_stats_report(
        client.call_raw(server::encode_stats_request(
            server::StatsKind::kHealth)));
    EXPECT_EQ(health.requests, 1u);
    EXPECT_GE(health.stats_requests, 1u);
    EXPECT_TRUE(health.scopes.empty());
  }
  srv.request_stop();
  srv.wait();
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
}

TEST_F(ServerTest, StatsRequestsBypassTheAdmissionQueue) {
  // Hold the scheduler inside one run so a second batch stays queued, then
  // show a stats probe answers while that batch is still pending.
  server::ServerConfig cfg = config("stats-busy.sock");
  SchedulerGate gate;
  server::Server srv(machine::make_power5_hydra(), cfg,
                     gate.around(cheap_setup()), &only_lu);
  SchedulerGate::Release release{gate};
  srv.start();
  const auto send = [&] {
    server::Client client(*dir_ / "stats-busy.sock");
    (void)client.call(lu_request(8, 16));
  };
  std::thread running(send);
  ASSERT_TRUE(eventually([&] { return gate.parked(); }));
  std::thread rider(send);
  ASSERT_TRUE(eventually([&] { return srv.queue_depth() == 1; }));
  server::Client probe(*dir_ / "stats-busy.sock");
  const server::StatsReport report = server::decode_stats_report(
      probe.call_raw(server::encode_stats_request(server::StatsKind::kStats)));
  EXPECT_EQ(report.queue_depth, 1u);  // answered while work sat queued
  EXPECT_EQ(report.inflight_batches, 1u);
  srv.request_stop();
  gate.open();  // the drain serves the running batch and the rider
  running.join();
  rider.join();
  srv.wait();
}

/// Sweep-side mirror of cheap_setup: same small grids, same LU/C app.
server::Server::SweepSetup cheap_sweep_setup() {
  const machine::Machine base = machine::make_power5_hydra();
  return [base](sweep::SweepRunner& runner, const sweep::SweepSpec& spec) {
    (void)spec;
    runner.set_spec_collector(
        [](const machine::Machine& b, const std::vector<machine::Machine>& t,
           const std::vector<int>& counts) {
          return collect_spec_library(b, t, counts);
        });
    runner.set_imb_collector([](const machine::Machine& m) {
      return imb::measure_database(m, kCounts, kSizes);
    });
    runner.add_app("LU/C",
                   service::describe_app_inputs("LU-MZ.C", base, 1, {4, 8, 16},
                                                {4, 8, 16}),
                   [base] {
                     return collect_base_data(
                         nas::NasApp(nas::Benchmark::kLU,
                                     nas::ProblemClass::kC),
                         base, {4, 8, 16}, {4, 8, 16});
                   });
  };
}

sweep::SweepSpec bandwidth_sweep_spec() {
  sweep::SweepSpec spec;
  spec.app = "LU/C";
  spec.target = machine::make_power6_575().name;
  spec.tasks = 8;
  spec.reference = 16;
  spec.options.compute.surrogate_reference_cores = 16;
  spec.axes.push_back({"network.link_bandwidth_gbs", sweep::AxisMode::kScale,
                       {0.5, 1.0, 2.0}});
  return spec;
}

std::string sweep_request(const sweep::SweepSpec& spec) {
  std::ostringstream payload;
  sweep::write_sweep_spec(payload, spec);
  return payload.str();
}

TEST_F(ServerTest, ServedSweepMatchesALocalRunExactly) {
  const sweep::SweepSpec spec = bandwidth_sweep_spec();
  server::Server srv(machine::make_power5_hydra(), config("sweep.sock"),
                     cheap_setup(), &only_lu, cheap_sweep_setup());
  srv.start();
  std::string payload;
  {
    server::Client client(*dir_ / "sweep.sock");
    payload = client.call_raw(sweep_request(spec));
  }
  ASSERT_TRUE(sweep::is_sweep_result(payload))
      << server::decode_response(payload).message;
  std::istringstream is(payload);
  const sweep::SweepResultDoc served = sweep::read_sweep_result(is);
  EXPECT_EQ(served.points, 3u);
  EXPECT_EQ(served.compute_classes, 1u);
  EXPECT_EQ(served.searches, 1u);
  EXPECT_EQ(served.comm_classes, 3u);

  // A standalone runner with the same collectors must agree row for row —
  // the served path adds transport and a resident cache, never arithmetic.
  sweep::SweepRunner local(machine::make_power5_hydra(),
                           {machine::make_power6_575()}, {});
  cheap_sweep_setup()(local, spec);
  const sweep::SweepResultDoc direct =
      sweep::make_sweep_result(spec, local.run(spec));
  ASSERT_EQ(served.rows.size(), direct.rows.size());
  for (std::size_t i = 0; i < served.rows.size(); ++i) {
    EXPECT_EQ(served.rows[i].machine, direct.rows[i].machine);
    EXPECT_EQ(served.rows[i].tasks, direct.rows[i].tasks);
    EXPECT_EQ(served.rows[i].compute_s, direct.rows[i].compute_s);
    EXPECT_EQ(served.rows[i].comm_s, direct.rows[i].comm_s);
    EXPECT_EQ(served.rows[i].total_s, direct.rows[i].total_s);
  }
  srv.request_stop();
  srv.wait();
  // A sweep counts its points as served requests, like a batch of rows.
  EXPECT_EQ(srv.requests_served(), 3u);
  EXPECT_EQ(srv.batches_run(), 1u);
}

TEST_F(ServerTest, SweepAdmissionRejectsBadSpecsAndOversizedSweeps) {
  server::ServerConfig cfg = config("sweep-adm.sock");
  cfg.max_sweep_points = 2;
  server::Server srv(machine::make_power5_hydra(), cfg, cheap_setup(),
                     &only_lu, cheap_sweep_setup());
  srv.start();
  server::Client client(*dir_ / "sweep-adm.sock");

  // Malformed document: admission answers bad-request, connection survives.
  const server::Response malformed = server::decode_response(
      client.call_raw("#swapp \"swapp-sweep\" v1\nbase \"LU/C\"\n"));
  EXPECT_FALSE(malformed.ok);
  EXPECT_EQ(malformed.error, server::ErrorCode::kBadRequest);

  // Three points against a two-point cap: rejected before any expansion
  // work is queued.
  const server::Response oversized = server::decode_response(
      client.call_raw(sweep_request(bandwidth_sweep_spec())));
  EXPECT_FALSE(oversized.ok);
  EXPECT_EQ(oversized.error, server::ErrorCode::kBadRequest);

  // The row validator vets the synthesized base row too.
  sweep::SweepSpec wrong_app = bandwidth_sweep_spec();
  wrong_app.app = "BT/C";
  wrong_app.axes.clear();
  const server::Response vetoed = server::decode_response(
      client.call_raw(sweep_request(wrong_app)));
  EXPECT_FALSE(vetoed.ok);
  EXPECT_EQ(vetoed.error, server::ErrorCode::kBadRequest);
  EXPECT_NE(vetoed.message.find("BT/C"), std::string::npos);

  // Ordinary batch traffic still works on the same connection.
  const std::string batch = client.call_raw(lu_request(8, 16));
  EXPECT_TRUE(server::decode_response(batch).ok);
  srv.request_stop();
  srv.wait();
}

TEST_F(ServerTest, ServersWithoutASweepSetupRejectSweeps) {
  server::Server srv(machine::make_power5_hydra(), config("no-sweep.sock"),
                     cheap_setup(), &only_lu);
  srv.start();
  server::Client client(*dir_ / "no-sweep.sock");
  const server::Response r = server::decode_response(
      client.call_raw(sweep_request(bandwidth_sweep_spec())));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, server::ErrorCode::kBadRequest);
  srv.request_stop();
  srv.wait();
}

TEST_F(ServerTest, ConstructorRejectsBadConfiguration) {
  server::ServerConfig cfg = config("cfg.sock");
  EXPECT_THROW(server::Server(machine::make_power5_hydra(), cfg, nullptr),
               Error);
  cfg.max_queue = 0;
  EXPECT_THROW(server::Server(machine::make_power5_hydra(), cfg,
                              cheap_setup()),
               Error);
}

}  // namespace
}  // namespace swapp
