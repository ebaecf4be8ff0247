// Long-running projection server: the resident owner of the artifact cache.
//
// `swapp serve` turns the batch pipeline into a daemon.  A `Server` listens
// on a Unix-domain socket and runs three kinds of threads:
//
//   * An acceptor, which only accepts connections and spawns per-connection
//     readers — it never parses, validates, or blocks on the queue, so a
//     flood of requests cannot stall new connections.
//   * Per-connection readers, which decode frames (server/protocol.h),
//     validate rows, and submit each client batch to a bounded admission
//     queue.  Past `max_queue` pending batches the reader answers with a
//     typed `busy` response instead of queueing — backpressure is explicit
//     and immediate, never an unbounded buffer.
//   * One scheduler, which pops one admitted request at a time and runs it
//     alone: a batch as one `ProjectionService` run over its own rows, a
//     sweep through a per-request `sweep::SweepRunner`.  Each reply carries
//     its own run's phases and artifact notes, and a run-time failure fails
//     only its own request.
//
// All runs share one resident `ArtifactCache` (ServiceConfig::shared_cache),
// making the daemon the single process that touches the cache directory —
// concurrent clients can no longer redundantly recompute an artifact the way
// concurrent `swapp batch` processes can.  Clients share work through that
// cache: a request for a row reads the surrogate an earlier request's GA
// search wrote, and batches and sweeps share spec libraries, IMB databases,
// app profiles, and persisted surrogates.
//
// Shutdown is graceful by construction: a byte written to `shutdown_fd()`
// (async-signal-safe, exactly what the CLI's SIGINT/SIGTERM handler does)
// stops the acceptor, flips admission to `shutting-down` responses, lets the
// scheduler drain every already-admitted batch, fulfils every pending
// response, and only then tears connections down.  `wait()` returns when all
// of that has happened.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "machine/machine.h"
#include "server/protocol.h"
#include "service/batch_format.h"
#include "service/service.h"
#include "sweep/runner.h"

namespace swapp::server {

struct ServerConfig {
  std::filesystem::path socket_path;
  /// Admission bound: client batches queued but not yet scheduled.  A full
  /// queue rejects with a typed `busy` response.
  std::size_t max_queue = 64;
  /// Largest request frame accepted; bigger announcements get a typed
  /// `oversized` response (the connection survives).
  std::size_t max_request_bytes = std::size_t{1} << 20;
  /// Hard cap on a served sweep's expanded point count; specs beyond it are
  /// rejected at admission as `bad-request` (checked on the multiplicities
  /// alone, before any expansion).
  std::size_t max_sweep_points = 512;
  /// Stats window geometry: a telemetry ticker thread snapshots the metrics
  /// registry every `stats_slot` into a ring of `stats_window_slots`
  /// entries (default 60 x 1s), so the stats endpoint can answer "last
  /// 1s/10s/60s" rates and latency quantiles, not just lifetime totals.
  /// Tests shrink the slot to drive rotation fast.
  std::size_t stats_window_slots = 60;
  std::chrono::milliseconds stats_slot{1000};
  /// Per-batch service configuration.  Its cache fields configure the
  /// server's resident cache (`shared_cache`, when set, is that cache), which
  /// every batch and sweep the server runs records into.
  service::ServiceConfig service;
};

class Server {
 public:
  /// Configures one freshly-built per-batch ProjectionService: install
  /// collectors and register every app named by `rows`.  Runs on the
  /// scheduler thread, once per served batch.
  using ServiceSetup = std::function<void(
      service::ProjectionService&, const std::vector<service::BatchRow>&)>;
  /// Admission-time row check, run on connection threads before queueing;
  /// return a non-empty message to reject the client's batch as
  /// `bad-request`.  Must be pure and thread-safe.  Target names are always
  /// resolved against the machine registry first, so validators only need
  /// app-shape checks.
  using RowValidator = std::function<std::string(const service::BatchRow&)>;
  /// Configures one freshly-built SweepRunner for an admitted "swapp-sweep"
  /// request: install collectors and register the app the spec names.  Runs
  /// on the scheduler thread, once per served sweep.  When absent, sweep
  /// requests are rejected as `bad-request`.
  using SweepSetup = std::function<void(sweep::SweepRunner&,
                                        const sweep::SweepSpec&)>;

  Server(machine::Machine base, ServerConfig config, ServiceSetup setup,
         RowValidator validate = nullptr, SweepSetup sweep_setup = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket (replacing a stale file, refusing a live server) and
  /// starts the acceptor and scheduler threads.  Throws swapp::Error on
  /// socket errors.
  void start();

  /// Writing one byte to this descriptor requests graceful shutdown; it is
  /// the only async-signal-safe entry point.  Valid after start().
  int shutdown_fd() const noexcept;
  /// Convenience wrapper around writing to shutdown_fd().
  void request_stop() noexcept;
  /// True once shutdown has been requested (draining or stopped).
  bool draining() const noexcept;
  /// Client batches admitted but not yet claimed by the scheduler.
  std::size_t queue_depth() const;

  /// Blocks until shutdown was requested, every admitted batch has been
  /// drained and answered, and all threads are joined.  Removes the socket
  /// file.
  void wait();

  /// The resident cache shared by every batch this server runs.
  service::ArtifactCache& cache() noexcept;

  // Lifetime counters (test and `swapp serve` log surface; the obs metrics
  // carry the same numbers when enabled).
  std::uint64_t connections_accepted() const noexcept;
  std::uint64_t requests_served() const noexcept;  ///< projection rows
  std::uint64_t batches_run() const noexcept;  ///< batches and sweeps run
  std::uint64_t busy_rejections() const noexcept;
  std::uint64_t protocol_errors() const noexcept;

  /// The report a `query "stats"` (full) or `query "health"` request gets:
  /// uptime, queue and in-flight state, lifetime counters, and (full only)
  /// the lifetime metrics snapshot plus 1s/10s/60s window scopes.  Built
  /// without touching the scheduler, so it is also a direct test surface.
  StatsReport stats_report(StatsKind kind);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace swapp::server
