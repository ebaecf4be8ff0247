// Wire protocol of the projection server.
//
// Framing: every message is a 4-byte big-endian payload length followed by
// that many payload bytes, over a SOCK_STREAM Unix-domain socket.  The
// payload is an io/record document — the exact serialisation the artifact
// cache already canonicalizes — so the wire format is as boring, diffable,
// and version-checked as the on-disk formats:
//
//   request  frame: a "swapp-batch" v1 document (service/batch_format.h) —
//                   byte-for-byte the `swapp batch` request file.
//   response frame: a "swapp-batch-result" v1 document with rows
//       result "<app>" "<target>" <tasks> <compute_s> <comm_s> <total_s>
//       phase "<name>" <seconds>
//       artifact "<name>" "<source>"
//     or, on failure, exactly one row
//       error "<code>" "<message>"
//
// Error codes are a closed enum so clients can react without string
// matching: `busy` (admission queue full — retry later), `bad-request`
// (malformed document or unknown app/target), `oversized` (frame above the
// server's --max-request-bytes), `shutting-down` (server is draining), and
// `internal` (batch execution failed).
//
// Doubles round-trip exactly through the record format (17 significant
// digits), which is what lets `swapp request` render a table byte-identical
// to `swapp batch` from decoded response rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace swapp::server {

/// Typed failure classes a response can carry.
enum class ErrorCode {
  kBadRequest,
  kOversized,
  kBusy,
  kShuttingDown,
  kInternal,
};
std::string to_string(ErrorCode code);
/// Inverse of to_string; throws InvalidArgument for unknown codes.
ErrorCode error_code_from(const std::string& name);

/// One projection result row — the columns of the `swapp batch` table,
/// carried at full double precision.
struct ResultRow {
  std::string app;
  std::string target;
  int tasks = 0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  double total_s = 0.0;
};

/// Wall-clock of one service phase of the run that served this request.
struct PhaseRow {
  std::string phase;
  double seconds = 0.0;
};

/// One acquired artifact and the cache tier that satisfied it.
struct ArtifactRow {
  std::string name;
  std::string source;
};

struct Response {
  bool ok = false;
  ErrorCode error = ErrorCode::kInternal;  ///< meaningful when !ok
  std::string message;                     ///< meaningful when !ok
  std::vector<ResultRow> results;
  std::vector<PhaseRow> phases;
  std::vector<ArtifactRow> artifacts;

  static Response failure(ErrorCode code, std::string message);
};

std::string encode_response(const Response& response);
/// Throws swapp::Error on a malformed document.
Response decode_response(const std::string& payload);

// --- introspection (stats / health) -----------------------------------------
// A second request document kind rides the same framing: a "swapp-stats" v1
// document whose single row is `query "stats"` or `query "health"`.  The
// server answers these *inline on the connection thread* — they never enter
// the admission queue, so introspection works even while a batch
// occupies the scheduler, and never pauses request processing.  The answer
// is a "swapp-stats-result" v1 document:
//
//   server "<ok|draining>" <uptime_s>
//   queue <depth> <capacity>
//   inflight <batches> <rows>
//   lifetime <connections> <requests> <batches> <busy> <proto_errors> <stats>
//   scope "<name>" <covered_seconds>
//   counter "<name>" <value>
//   gauge "<name>" <value>
//   histogram "<name>" <count> <sum> <min> <max> <b0> ... <b31>
//
// counter/gauge/histogram rows attach to the most recent scope row; a
// `health` query answers the same head rows with no scopes.  Histogram rows
// carry all 32 log2 buckets, so the client can render quantiles and
// Prometheus exposition without another round trip.

/// What kind of introspection a request asks for.  kStats returns the full
/// report (windowed metric scopes included); kHealth only the cheap head.
enum class StatsKind {
  kStats,
  kHealth,
};

/// Encodes a "swapp-stats" v1 request document.
std::string encode_stats_request(StatsKind kind);

/// Classifies a request payload: a "swapp-stats" document yields its
/// StatsKind, anything else (the normal "swapp-batch" path included) yields
/// nullopt-like absence via the bool.  Throws swapp::Error on a document
/// that *is* "swapp-stats" but malformed.
struct StatsRequest {
  bool is_stats = false;
  StatsKind kind = StatsKind::kStats;
};
StatsRequest classify_stats_request(const std::string& payload);

// --- sweeps -----------------------------------------------------------------
// A third request document kind rides the same framing: a "swapp-sweep" v1
// sweep specification (sweep/sweep.h) — byte-for-byte the `swapp sweep
// --spec` file.  Sweeps pass through the same admission queue as batches and
// execute in scheduler turns against the resident cache, so a sweep and the
// batches around it share spec libraries, IMB databases, profiles, and
// persisted surrogates.  The answer is a "swapp-sweep-result" v1
// document (sweep/result.h), or a plain error response on failure — clients
// sniff with sweep::is_sweep_result.

/// True iff `payload` carries a "swapp-sweep" request document.  The probe
/// requires the closing quote, so "swapp-sweep-result" payloads never match.
bool is_sweep_request(const std::string& payload);

/// One named metrics scope of a stats report: the process lifetime or one
/// trailing window ("1s"/"10s"/"60s"), with the wall time it actually
/// covers.
struct StatsScope {
  std::string name;
  double seconds = 0.0;
  obs::MetricsSnapshot metrics;
};

struct StatsReport {
  bool draining = false;
  double uptime_s = 0.0;
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_capacity = 0;
  std::uint64_t inflight_batches = 0;  ///< batch or sweep runs executing now
  std::uint64_t inflight_rows = 0;     ///< projection rows in those runs
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;  ///< projection rows served, lifetime
  std::uint64_t batches = 0;   ///< batch and sweep runs, lifetime
  std::uint64_t busy_rejections = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t stats_requests = 0;
  std::vector<StatsScope> scopes;  ///< empty for a health answer
};

std::string encode_stats_report(const StatsReport& report);
/// Throws swapp::Error on a malformed document.
StatsReport decode_stats_report(const std::string& payload);

// --- framing ----------------------------------------------------------------

/// Outcome of reading one frame from a connection.
enum class FrameStatus {
  kOk,         ///< payload holds a complete frame
  kEof,        ///< peer closed cleanly before a new frame started
  kTruncated,  ///< peer closed mid-frame; no response is possible
  kOversized,  ///< announced length exceeded max_bytes; payload discarded,
               ///< the stream is positioned at the next frame
};

struct Frame {
  FrameStatus status = FrameStatus::kEof;
  std::string payload;  ///< set when status == kOk
};

/// Reads one length-prefixed frame from `fd`.  An oversized announcement is
/// drained from the stream (so the connection survives) but its payload is
/// dropped.  Throws swapp::Error on hard I/O errors; EINTR is retried.
Frame read_frame(int fd, std::size_t max_bytes);

/// Writes one length-prefixed frame to `fd` (retrying short writes and
/// EINTR).  Throws swapp::Error on I/O errors, including a closed peer.
void write_frame(int fd, const std::string& payload);

}  // namespace swapp::server
