#include "server/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "server/options.h"
#include "support/error.h"

namespace swapp::server {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

void fill_unix_address(sockaddr_un& addr, const std::string& path) {
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
}

}  // namespace

struct Server::Impl {
  Impl(machine::Machine b, ServerConfig c, ServiceSetup s, RowValidator v,
       SweepSetup ss)
      : base(std::move(b)),
        config(std::move(c)),
        setup(std::move(s)),
        validate(std::move(v)),
        sweep_setup(std::move(ss)),
        cache(service::make_cache(config.service)) {}

  machine::Machine base;
  ServerConfig config;
  ServiceSetup setup;
  RowValidator validate;
  SweepSetup sweep_setup;
  std::shared_ptr<service::ArtifactCache> cache;

  int listen_fd = -1;
  int wake_fd[2] = {-1, -1};
  std::atomic<bool> started{false};
  std::atomic<bool> stopping{false};
  bool waited = false;

  /// One admitted request: a client batch (rows) or a sweep (spec), plus
  /// the promise the scheduler fulfils with the *encoded* response payload —
  /// batches resolve to a "swapp-batch-result" document, sweeps to a
  /// "swapp-sweep-result" document, failures of either to an error response.
  struct Item {
    bool is_sweep = false;
    std::vector<service::BatchRow> rows;
    sweep::SweepSpec spec;  ///< meaningful when is_sweep
    std::promise<std::string> promise;
    double enqueued_us = 0.0;
  };

  std::mutex mutex;  ///< guards queue and stop_requested
  std::condition_variable cv;
  std::deque<Item> queue;
  bool stop_requested = false;

  std::thread acceptor;
  std::thread scheduler;

  // --- live telemetry -------------------------------------------------------
  // The ticker is the scheduler's telemetry companion: the scheduler itself
  // can block for minutes inside one run, so a dedicated thread
  // rotates the stats window on the configured cadence regardless.  Stats
  // queries are answered inline on connection threads (never queued), so
  // introspection cannot pause request processing.
  obs::MetricsWindow window{config.stats_window_slots};
  std::thread ticker;
  std::mutex ticker_mutex;
  std::condition_variable ticker_cv;
  bool ticker_stop = false;
  double start_us = 0.0;

  std::atomic<std::uint64_t> inflight_batches{0};
  std::atomic<std::uint64_t> inflight_rows{0};
  std::atomic<std::uint64_t> stats_requests{0};

  /// Connection registry: the entry owns the fd; the thread only uses it.
  struct Conn {
    std::thread thread;
    int fd = -1;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex conn_mutex;
  std::vector<Conn> conns;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> busy{0};
  std::atomic<std::uint64_t> proto_errors{0};

  void acceptor_loop();
  void serve_connection(int fd);
  std::string handle_payload(const std::string& payload);
  std::string admit(Item item);  ///< queue + wait for the scheduler's answer
  void scheduler_loop();
  /// Runs one admitted request alone and fulfils its promise.
  void run(Item item);
  /// The encoded reply to one request and the rows it served.
  struct Reply {
    std::string payload;
    std::size_t rows = 0;
  };
  Reply batch_reply(const std::vector<service::BatchRow>& rows);
  Reply sweep_reply(const sweep::SweepSpec& spec);
  void ticker_loop();
  StatsReport build_stats(StatsKind kind);
};

void Server::Impl::acceptor_loop() {
  while (true) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {wake_fd[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // accepting is impossible; shut down rather than spin
    }
    if (fds[1].revents != 0) break;  // shutdown byte arrived
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    ++accepted;
    SWAPP_COUNT("server.connections", 1);
    std::lock_guard<std::mutex> lock(conn_mutex);
    // Reap finished connections so a long-lived server does not accumulate
    // one joinable thread (and one fd) per past client.
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->done->load()) {
        it->thread.join();
        ::close(it->fd);
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
    Conn conn;
    conn.fd = fd;
    conn.done = std::make_shared<std::atomic<bool>>(false);
    const std::shared_ptr<std::atomic<bool>> done = conn.done;
    conn.thread = std::thread([this, fd, done] {
      serve_connection(fd);
      done->store(true);
    });
    conns.push_back(std::move(conn));
  }
  // Stop admitting and wake the scheduler for its final drain.  Admission
  // flips before the public `draining()` flag, so anyone who observes
  // draining() == true is guaranteed a shutting-down response, not a queue
  // slot.
  {
    std::lock_guard<std::mutex> lock(mutex);
    stop_requested = true;
  }
  cv.notify_all();
  stopping.store(true);
}

void Server::Impl::serve_connection(int fd) {
  try {
    while (true) {
      const Frame frame = read_frame(fd, config.max_request_bytes);
      if (frame.status == FrameStatus::kEof) break;
      if (frame.status == FrameStatus::kTruncated) {
        // The peer vanished mid-frame; there is nobody left to answer.
        ++proto_errors;
        SWAPP_COUNT("server.truncated_frames", 1);
        break;
      }
      SWAPP_SPAN("server.request");
      std::string answer;
      if (frame.status == FrameStatus::kOversized) {
        ++proto_errors;
        SWAPP_COUNT("server.oversized_frames", 1);
        answer = encode_response(Response::failure(
            ErrorCode::kOversized,
            "request frame exceeds " +
                std::to_string(config.max_request_bytes) + " bytes"));
      } else {
        // Introspection requests are answered right here on the connection
        // thread — they bypass the admission queue entirely, so a stats
        // probe works even while a run occupies the scheduler.
        StatsRequest stats{};
        try {
          stats = classify_stats_request(frame.payload);
        } catch (const Error& e) {
          ++proto_errors;
          SWAPP_COUNT("server.bad_requests", 1);
          write_frame(fd,
                      encode_response(Response::failure(
                          ErrorCode::kBadRequest, e.what())));
          continue;
        }
        if (stats.is_stats) {
          ++stats_requests;
          SWAPP_COUNT("server.stats_requests", 1);
          write_frame(fd, encode_stats_report(build_stats(stats.kind)));
          continue;
        }
        answer = handle_payload(frame.payload);
      }
      write_frame(fd, answer);
    }
  } catch (const std::exception&) {
    // A hard socket error (peer gone mid-write) ends this conversation;
    // the server itself is unaffected.
  }
  ::shutdown(fd, SHUT_RDWR);  // the registry entry owns and closes the fd
}

std::string Server::Impl::handle_payload(const std::string& payload) {
  // Parse and validate on the connection thread, so a malformed or
  // unsatisfiable request is rejected without ever occupying the admission
  // queue.
  Item item;
  try {
    if (is_sweep_request(payload)) {
      if (!sweep_setup) {
        throw InvalidArgument("this server does not serve sweeps");
      }
      std::istringstream in(payload);
      item.spec = sweep::read_sweep_spec(in);
      item.is_sweep = true;
      const machine::Machine target =
          machine::machine_by_name(item.spec.target);
      // Cap on the multiplicities alone, BEFORE expanding — a typo'd range
      // axis must fail fast, not enumerate a billion machines first.
      const std::size_t points = sweep::point_count(item.spec);
      if (points > config.max_sweep_points) {
        throw InvalidArgument(
            "sweep expands to " + std::to_string(points) +
            " points, over the server cap of " +
            std::to_string(config.max_sweep_points));
      }
      if (validate) {
        // Validate every expanded point as the batch row it amounts to, so
        // app-shape checks (profiled task counts, known apps) apply to
        // sweeps exactly as they do to batches.
        for (const sweep::SweepPoint& point :
             sweep::expand(item.spec, target)) {
          service::BatchRow row;
          row.app = item.spec.app;
          row.target = item.spec.target;
          row.tasks = point.tasks;
          row.threads = item.spec.threads;
          const std::string message = validate(row);
          if (!message.empty()) throw InvalidArgument(message);
        }
      }
    } else {
      std::istringstream in(payload);
      item.rows = service::read_batch_requests(in);
      for (const service::BatchRow& row : item.rows) {
        machine::machine_by_name(row.target);  // throws NotFound when unknown
        if (row.tasks < 1) {
          throw InvalidArgument("request needs tasks >= 1, got " +
                                std::to_string(row.tasks));
        }
        if (row.threads < 1) {
          throw InvalidArgument("request needs threads >= 1, got " +
                                std::to_string(row.threads));
        }
        if (validate) {
          const std::string message = validate(row);
          if (!message.empty()) throw InvalidArgument(message);
        }
      }
    }
  } catch (const Error& e) {
    ++proto_errors;
    SWAPP_COUNT("server.bad_requests", 1);
    return encode_response(
        Response::failure(ErrorCode::kBadRequest, e.what()));
  }
  return admit(std::move(item));
}

std::string Server::Impl::admit(Item item) {
  std::future<std::string> pending;
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (stop_requested) {
      return encode_response(
          Response::failure(ErrorCode::kShuttingDown,
                            "server is draining and accepts no new work"));
    }
    if (queue.size() >= config.max_queue) {
      ++busy;
      SWAPP_COUNT("server.busy_rejections", 1);
      return encode_response(Response::failure(
          ErrorCode::kBusy, "admission queue is full (" +
                                std::to_string(config.max_queue) +
                                " pending batches); retry later"));
    }
    item.enqueued_us = obs::trace_now_us();
    pending = item.promise.get_future();
    queue.push_back(std::move(item));
    SWAPP_GAUGE_SET("server.queue_depth", static_cast<double>(queue.size()));
  }
  cv.notify_all();
  // The scheduler fulfils every admitted promise, shutdown drain included,
  // so this wait always terminates.
  return pending.get();
}

void Server::Impl::scheduler_loop() {
  while (true) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return stop_requested || !queue.empty(); });
      if (queue.empty()) return;  // stop requested and fully drained
      item = std::move(queue.front());
      queue.pop_front();
      SWAPP_GAUGE_SET("server.queue_depth", static_cast<double>(queue.size()));
    }
    run(std::move(item));
  }
}

void Server::Impl::run(Item item) {
  SWAPP_OBSERVE("server.queue_wait_us",
                obs::trace_now_us() - item.enqueued_us);
  // In-flight state is what a stats probe reads while this run executes —
  // it must be set before the run and cleared before the promise resolves.
  inflight_batches.store(1);
  inflight_rows.store(item.is_sweep ? sweep::point_count(item.spec)
                                    : item.rows.size());
  std::string payload;
  try {
    Reply reply =
        item.is_sweep ? sweep_reply(item.spec) : batch_reply(item.rows);
    payload = std::move(reply.payload);
    served += reply.rows;
    ++batches;
    SWAPP_COUNT("server.batches", 1);
    SWAPP_COUNT("server.requests", reply.rows);
    if (item.is_sweep) SWAPP_COUNT("server.sweeps", 1);
  } catch (const std::exception& e) {
    // Admission-time validation keeps this to genuine execution failures
    // (e.g. a thread count no profile matches); only this request fails.
    SWAPP_COUNT("server.failed_batches", 1);
    payload =
        encode_response(Response::failure(ErrorCode::kInternal, e.what()));
  }
  // All accounting lands BEFORE the promise resolves: a client that just
  // received its answer may immediately probe the stats endpoint, and it
  // must see this run counted and no longer in flight.
  SWAPP_OBSERVE("server.request_us", obs::trace_now_us() - item.enqueued_us);
  inflight_rows.store(0);
  inflight_batches.store(0);
  item.promise.set_value(std::move(payload));
}

Server::Impl::Reply Server::Impl::batch_reply(
    const std::vector<service::BatchRow>& rows) {
  SWAPP_SPAN("server.batch");
  service::ServiceConfig service_config = config.service;
  service_config.shared_cache = cache;
  service::ProjectionService svc(base, service::row_targets(rows),
                                 service_config);
  setup(svc, rows);
  std::vector<service::ServiceRequest> requests;
  requests.reserve(rows.size());
  for (const service::BatchRow& row : rows) {
    requests.push_back(service::to_service_request(row));
  }
  const double run_start_us = obs::trace_now_us();
  const service::ProjectionService::BatchReport report = svc.run(requests);
  SWAPP_OBSERVE("server.run_us", obs::trace_now_us() - run_start_us);

  Response response;
  response.ok = true;
  for (const core::ProjectionResult& r : report.results) {
    response.results.push_back(ResultRow{r.app, r.target, r.cores,
                                         r.compute.target_compute,
                                         r.comm.target_total(),
                                         r.total_target()});
  }
  for (const service::ProjectionService::PhaseTime& p : report.phases) {
    response.phases.push_back(PhaseRow{p.phase, p.seconds});
  }
  for (const service::ProjectionService::ArtifactNote& note :
       report.artifacts) {
    response.artifacts.push_back(
        ArtifactRow{note.name, to_string(note.source)});
  }
  return Reply{encode_response(response), report.results.size()};
}

Server::Impl::Reply Server::Impl::sweep_reply(const sweep::SweepSpec& spec) {
  SWAPP_SPAN("server.sweep");
  sweep::SweepConfig sweep_config;
  sweep_config.shared_cache = cache;
  sweep_config.max_points = config.max_sweep_points;
  sweep::SweepRunner runner(base, {machine::machine_by_name(spec.target)},
                            sweep_config);
  sweep_setup(runner, spec);
  const double run_start_us = obs::trace_now_us();
  const sweep::SweepRunner::SweepReport report = runner.run(spec);
  SWAPP_OBSERVE("server.run_us", obs::trace_now_us() - run_start_us);
  std::ostringstream os;
  sweep::write_sweep_result(os, sweep::make_sweep_result(spec, report));
  // A sweep's rows are its points.
  return Reply{os.str(), report.points.size()};
}

void Server::Impl::ticker_loop() {
  std::unique_lock<std::mutex> lock(ticker_mutex);
  while (!ticker_stop) {
    ticker_cv.wait_for(lock, config.stats_slot, [&] { return ticker_stop; });
    if (ticker_stop) return;
    // Snapshotting outside the lock would let wait() race past a rotation;
    // rotation is cheap (one registry sweep) so holding it is fine.
    window.rotate(obs::metrics_snapshot(), obs::trace_now_us());
  }
}

StatsReport Server::Impl::build_stats(StatsKind kind) {
  StatsReport report;
  const double now_us = obs::trace_now_us();
  report.draining = stopping.load();
  report.uptime_s = start_us > 0.0 ? (now_us - start_us) / 1e6 : 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex);
    report.queue_depth = queue.size();
  }
  report.queue_capacity = config.max_queue;
  report.inflight_batches = inflight_batches.load();
  report.inflight_rows = inflight_rows.load();
  report.connections = accepted.load();
  report.requests = served.load();
  report.batches = batches.load();
  report.busy_rejections = busy.load();
  report.protocol_errors = proto_errors.load();
  report.stats_requests = stats_requests.load();
  if (kind == StatsKind::kHealth) return report;

  // Window scopes diff the *current* snapshot against ring entries, so the
  // answer includes activity up to this instant — a probe right after a
  // burst sees it without waiting for the next rotation.
  obs::MetricsSnapshot life = obs::metrics_snapshot();
  for (const double seconds : {1.0, 10.0, 60.0}) {
    obs::MetricsWindow::Delta d = window.delta_over(seconds, life, now_us);
    StatsScope scope;
    scope.name = std::to_string(static_cast<int>(seconds)) + "s";
    scope.seconds = d.seconds;
    scope.metrics = std::move(d.metrics);
    report.scopes.push_back(std::move(scope));
  }
  StatsScope lifetime;
  lifetime.name = "lifetime";
  lifetime.seconds = report.uptime_s;
  lifetime.metrics = std::move(life);
  report.scopes.push_back(std::move(lifetime));
  return report;
}

Server::Server(machine::Machine base, ServerConfig config, ServiceSetup setup,
               RowValidator validate, SweepSetup sweep_setup) {
  SWAPP_REQUIRE(setup != nullptr, "server needs a service setup callback");
  SWAPP_REQUIRE(config.max_queue >= 1, "max_queue must be >= 1");
  impl_ = std::make_unique<Impl>(std::move(base), std::move(config),
                                 std::move(setup), std::move(validate),
                                 std::move(sweep_setup));
}

Server::~Server() {
  if (impl_->started.load() && !impl_->waited) {
    request_stop();
    try {
      wait();
    } catch (...) {
      // Destruction must not throw; leaked fds die with the process.
    }
  }
}

void Server::start() {
  Impl& s = *impl_;
  SWAPP_REQUIRE(!s.started.load(), "server already started");
  const std::string path = s.config.socket_path.string();
  parse_socket_path(path);

  // A stale socket file from a crashed server is replaced; a live one is
  // refused (a successful connect means somebody is serving it).
  std::error_code ec;
  if (std::filesystem::exists(s.config.socket_path, ec)) {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe >= 0) {
      sockaddr_un addr;
      fill_unix_address(addr, path);
      const bool live =
          ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
          0;
      ::close(probe);
      if (live) throw Error("socket is already being served: " + path);
    }
    std::filesystem::remove(s.config.socket_path, ec);
  }

  s.listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (s.listen_fd < 0) throw_errno("socket");
  sockaddr_un addr;
  fill_unix_address(addr, path);
  if (::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(s.listen_fd);
    s.listen_fd = -1;
    errno = saved;
    throw_errno("bind(" + path + ")");
  }
  if (::listen(s.listen_fd, 64) != 0) throw_errno("listen");
  if (::pipe2(s.wake_fd, O_CLOEXEC) != 0) throw_errno("pipe2");

  s.started.store(true);
  s.start_us = obs::trace_now_us();
  // Seed the window so the very first stats probe has a baseline to diff
  // against, then let the ticker rotate on the configured cadence.
  s.window.rotate(obs::metrics_snapshot(), s.start_us);
  s.ticker = std::thread([&s] { s.ticker_loop(); });
  s.scheduler = std::thread([&s] { s.scheduler_loop(); });
  s.acceptor = std::thread([&s] { s.acceptor_loop(); });
}

int Server::shutdown_fd() const noexcept { return impl_->wake_fd[1]; }

void Server::request_stop() noexcept {
  if (impl_->wake_fd[1] < 0) return;
  const char byte = 's';
  ssize_t rc;
  do {
    rc = ::write(impl_->wake_fd[1], &byte, 1);
  } while (rc < 0 && errno == EINTR);
}

bool Server::draining() const noexcept { return impl_->stopping.load(); }

std::size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->queue.size();
}

void Server::wait() {
  Impl& s = *impl_;
  SWAPP_REQUIRE(s.started.load(), "server not started");
  if (s.waited) return;
  if (s.acceptor.joinable()) s.acceptor.join();
  if (s.scheduler.joinable()) s.scheduler.join();
  {
    std::lock_guard<std::mutex> lock(s.ticker_mutex);
    s.ticker_stop = true;
  }
  s.ticker_cv.notify_all();
  if (s.ticker.joinable()) s.ticker.join();
  // Every admitted promise is now fulfilled, but a reader that just received
  // its future result may not have written the response yet.  Shut down only
  // the read side: a reader parked in recv wakes with EOF and exits, while an
  // in-flight response write still reaches the client.
  std::vector<Impl::Conn> conns;
  {
    std::lock_guard<std::mutex> lock(s.conn_mutex);
    for (Impl::Conn& conn : s.conns) ::shutdown(conn.fd, SHUT_RD);
    conns.swap(s.conns);
  }
  for (Impl::Conn& conn : conns) {
    if (conn.thread.joinable()) conn.thread.join();
    ::close(conn.fd);
  }
  ::close(s.listen_fd);
  s.listen_fd = -1;
  ::close(s.wake_fd[0]);
  ::close(s.wake_fd[1]);
  s.wake_fd[0] = s.wake_fd[1] = -1;
  std::error_code ec;
  std::filesystem::remove(s.config.socket_path, ec);
  s.waited = true;
}

service::ArtifactCache& Server::cache() noexcept { return *impl_->cache; }

std::uint64_t Server::connections_accepted() const noexcept {
  return impl_->accepted.load();
}
std::uint64_t Server::requests_served() const noexcept {
  return impl_->served.load();
}
std::uint64_t Server::batches_run() const noexcept {
  return impl_->batches.load();
}
std::uint64_t Server::busy_rejections() const noexcept {
  return impl_->busy.load();
}
std::uint64_t Server::protocol_errors() const noexcept {
  return impl_->proto_errors.load();
}

StatsReport Server::stats_report(StatsKind kind) {
  return impl_->build_stats(kind);
}

}  // namespace swapp::server
