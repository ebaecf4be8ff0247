// swapp — command-line projection tool.
//
// The collect-once / project-many workflow from a shell:
//
//   # collect benchmark databases (once per machine)
//   swapp collect-imb  --machine "IBM POWER6 575" --out p6.imb
//   swapp collect-spec --targets "IBM POWER6 575,IBM BlueGene/P" --out spec.lib
//
//   # profile an application on the base system (once per app)
//   swapp profile --app BT --class C --counts 16,32,64,128 --out bt_c.app
//
//   # project (as often as you like, no simulation involved)
//   swapp project --app-data bt_c.app --spec spec.lib
//                 --base-imb hydra.imb --target-imb p6.imb
//                 --target "IBM POWER6 575" --tasks 128
//
//   # everything in one go (collects what is missing); a cache directory
//   # makes the second run skip all simulation
//   swapp project --app BT --class C --target "IBM POWER6 575" --tasks 128
//                 --cache-dir .swapp-cache
//
//   # batch: many projections, planned together (shared artifacts built once)
//   swapp batch --requests batch.req --cache-dir .swapp-cache
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/projector.h"
#include "experiments/lab.h"
#include "imb/suite.h"
#include "io/persist.h"
#include "io/record.h"
#include "machine/machine.h"
#include "nas/nas_app.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/options.h"
#include "server/server.h"
#include "service/batch_format.h"
#include "service/service.h"
#include "support/error.h"
#include "sweep/runner.h"
#include "support/obs_report.h"
#include "support/parse.h"
#include "support/table.h"

namespace {

using namespace swapp;

[[noreturn]] void usage(const std::string& message = {}) {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      R"(usage: swapp <command> [options]

commands:
  list-machines                       show the built-in machine models
  collect-imb   --machine NAME --out FILE
  collect-spec  --targets A,B,...  --out FILE
  profile       --app BT|SP|LU --class C|D [--threads N]
                [--counts 16,32,...] --out FILE
  project       --target NAME --tasks N [--cache-dir DIR]
                (--app NAME --class C|D [--threads N] |
                 --app-data FILE --spec FILE --base-imb FILE --target-imb FILE)
  batch         --requests FILE [--cache-dir DIR]
                [--cache-dir-max-bytes N[k|m|g]] [--out FILE]
  sweep         --spec FILE [--cache-dir DIR] [--cache-dir-max-bytes N[k|m|g]]
                [--out FILE] [--socket PATH]
  serve         --socket PATH [--cache-dir DIR] [--cache-dir-max-bytes N[k|m|g]]
                [--max-queue N] [--max-request-bytes N[k|m|g]]
  request       --socket PATH --requests FILE [--out FILE]
  stats         (--metrics FILE [--filter PREFIX] | --trace FILE.jsonl |
                 --socket PATH [--watch SECS] [--health] [--prometheus])

global options (before or after the command's own flags):
  --trace FILE    record a span trace of the run; a .jsonl extension writes
                  JSON-lines, anything else Chrome trace-event JSON
                  (loadable in chrome://tracing or Perfetto)
  --metrics FILE  record counters/gauges/histograms and write the snapshot
                  as JSONL; pretty-print it later with `swapp stats`

The base system is always the TAMU Hydra POWER5+ model.

The batch request file is an io/record document of kind "swapp-batch" v1;
each row is
  request "<BT|SP|LU>/<C|D>" "<target machine>" <tasks> [<threads> [<ref>]]
or, with a pre-collected profile,
  request "file:<path>" "<target machine>" <tasks> [<threads> [<ref>]]
where <ref> > 0 runs the GA surrogate search once at that reference task
count and rescales it to every other count of the same app/target group.

--cache-dir enables the content-addressed artifact cache: collected spec
libraries, IMB databases, and app profiles are stored there and reused by
later runs (a warm run performs no simulation).  --cache-dir-max-bytes caps
the disk tier; past the cap the oldest artifact files are evicted.

`serve` runs a long-lived projection daemon on a Unix-domain socket; it owns
the artifact cache and runs each request alone against it, so artifacts and
GA surrogate searches one request computed are reused by later ones.
SIGINT/SIGTERM drain in-flight work before exiting.  Metrics recording stays
on, and exact, for the daemon's whole life.

`stats --socket PATH` queries a running server's introspection endpoint:
uptime, queue depth, in-flight work, and per-request latency quantiles over
the last 1s/10s/60s windows plus the process lifetime.  --watch SECS repeats
the query every SECS seconds; --health asks only for the cheap liveness head;
--prometheus prints Prometheus text exposition instead of tables.
`stats --trace FILE.jsonl` aggregates a JSONL span trace per name: count,
total time, and self time (total minus child-span time), so the rows sum to
wall clock without double-counting nested spans.  Malformed lines are
skipped with a per-line warning.
`request` sends a batch request file to a running server and prints the same
table `swapp batch` would, byte for byte.

`sweep` runs a what-if design-space exploration: one base request plus
parameter axes over machine-model fields, expanded into the cross product of
concrete configurations and factored by a delta-aware planner so points that
share a compute- or comm-side configuration share SPEC libraries, GA
surrogate searches, and IMB databases.  The spec file is an io/record
document of kind "swapp-sweep" v1:
  base "<app>" "<target machine>" <tasks> [<threads> [<ref>]]
  axis "<field>" list|scale V1 V2 ...
  axis "<field>" range FROM TO STEPS
where <field> is a machine-model field (see machine/overrides.h; e.g.
"network.link_bandwidth_gbs", "cache.L2.capacity_kib") or the pseudo-axis
"tasks".  `scale` multiplies the target's current value; axes expand with
the last axis varying fastest.  With --socket the spec is served by a
running daemon (sharing its resident cache); otherwise it runs locally
against --cache-dir.  Either way stdout carries the same table, byte for
byte, and --out writes the machine-readable "swapp-sweep-result" document.

--out (on batch and request) additionally writes the machine-readable
"swapp-batch-result" document — result, phase, and artifact rows, the same
format the server speaks on the wire.
)";
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument: " + key);
    key = key.substr(2);
    if (key == "health" || key == "prometheus") {  // valueless switches
      flags[key] = "1";
      continue;
    }
    if (i + 1 >= argc) usage("flag --" + key + " needs a value");
    flags[key] = argv[++i];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) usage("missing required flag --" + key);
  return it->second;
}

/// A task, thread or core count: a positive decimal integer that fits an
/// int.  Anything else exits 2 naming the flag.
int parse_count(const std::string& flag, const std::string& value) {
  const long long v = parse_positive_decimal(value);
  if (v < 1 || v > std::numeric_limits<int>::max()) {
    usage("--" + flag + " needs a positive integer, got '" + value + "'");
  }
  return static_cast<int>(v);
}

std::vector<int> parse_counts(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    out.push_back(parse_count("counts", token));
  }
  if (out.empty()) usage("empty count list");
  return out;
}

std::vector<std::string> parse_names(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) out.push_back(token);
  return out;
}

nas::Benchmark benchmark_from(const std::string& name) {
  if (name == "BT") return nas::Benchmark::kBT;
  if (name == "SP") return nas::Benchmark::kSP;
  if (name == "LU") return nas::Benchmark::kLU;
  usage("unknown app (use BT, SP, or LU): " + name);
}

nas::ProblemClass class_from(const std::string& name) {
  if (name == "C") return nas::ProblemClass::kC;
  if (name == "D") return nas::ProblemClass::kD;
  usage("unknown class (use C or D): " + name);
}

core::AppBaseData profile_app(nas::Benchmark bench, nas::ProblemClass cls,
                              int threads, const std::vector<int>& counts) {
  const machine::Machine base = machine::make_power5_hydra();
  const nas::NasApp app(bench, cls);
  core::AppBaseData data;
  data.app = app.name();
  data.base_machine = base.name;
  data.threads_per_rank = threads;
  for (const int c : counts) {
    std::cerr << "profiling " << app.name() << " at " << c << " tasks...\n";
    const auto st = app.run(base, c, machine::SmtMode::kSingleThread, threads);
    data.mpi_profiles.emplace(c, st->profile());
    data.mean_compute.emplace(c, st->profile().mean_compute());
    data.counters_st.emplace(c, st->counters());
    const auto smt = app.run(base, c, machine::SmtMode::kSmt, threads);
    data.counters_smt.emplace(c, smt->counters());
  }
  return data;
}

int cmd_list_machines(const std::map<std::string, std::string>&) {
  TextTable table({"Machine", "Processor", "Cores/Node", "Total Cores"});
  for (const machine::Machine& m : machine::all_machines()) {
    table.add_row({m.name, m.processor.name, std::to_string(m.cores_per_node),
                   std::to_string(m.total_cores)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_collect_imb(const std::map<std::string, std::string>& flags) {
  const machine::Machine m = machine::machine_by_name(need(flags, "machine"));
  std::cerr << "measuring IMB-style tables on " << m.name << "...\n";
  io::save_imb_database(need(flags, "out"), imb::measure_database(m));
  std::cout << "wrote " << need(flags, "out") << "\n";
  return 0;
}

int cmd_collect_spec(const std::map<std::string, std::string>& flags) {
  const machine::Machine base = machine::make_power5_hydra();
  std::vector<machine::Machine> targets;
  for (const std::string& name : parse_names(need(flags, "targets"))) {
    targets.push_back(machine::machine_by_name(name));
  }
  std::vector<int> counts = {4, 8, 16, 32, 64, 128};
  if (flags.count("counts")) counts = parse_counts(flags.at("counts"));
  std::cerr << "collecting SPEC-style library (base + " << targets.size()
            << " targets)...\n";
  io::save_spec_library(
      need(flags, "out"),
      experiments::collect_spec_library(base, targets, counts));
  std::cout << "wrote " << need(flags, "out") << "\n";
  return 0;
}

int cmd_profile(const std::map<std::string, std::string>& flags) {
  const nas::Benchmark bench = benchmark_from(need(flags, "app"));
  const nas::ProblemClass cls = class_from(need(flags, "class"));
  const int threads =
      flags.count("threads") ? parse_count("threads", flags.at("threads")) : 1;
  std::vector<int> counts =
      bench == nas::Benchmark::kLU ? std::vector<int>{4, 8, 16}
                                   : std::vector<int>{16, 32, 64, 128};
  if (flags.count("counts")) counts = parse_counts(flags.at("counts"));
  io::save_app_data(need(flags, "out"),
                    profile_app(bench, cls, threads, counts));
  std::cout << "wrote " << need(flags, "out") << "\n";
  return 0;
}

/// Reports where a (possibly cached) artifact came from.
void note_source(const std::string& what, service::ArtifactSource source) {
  std::cerr << what << ": " << service::to_string(source) << "\n";
}

int cmd_project(const std::map<std::string, std::string>& flags) {
  const std::string target_name = need(flags, "target");
  const int tasks = parse_count("tasks", need(flags, "tasks"));
  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::machine_by_name(target_name);

  // Everything that has to be collected (rather than loaded from an
  // explicit file) goes through the artifact cache, so a warm --cache-dir
  // run performs no simulation at all.
  service::ArtifactCache cache(
      flags.count("cache-dir") ? flags.at("cache-dir") : "");
  service::ArtifactSource source = service::ArtifactSource::kComputed;

  core::AppBaseData app_data;
  if (flags.count("app-data")) {
    app_data = io::load_app_data(flags.at("app-data"));
  } else {
    const nas::Benchmark bench = benchmark_from(need(flags, "app"));
    const nas::ProblemClass cls = class_from(need(flags, "class"));
    const int threads = flags.count("threads")
                            ? parse_count("threads", flags.at("threads"))
                            : 1;
    const std::vector<int> counts =
        bench == nas::Benchmark::kLU ? std::vector<int>{4, 8, 16}
                                     : std::vector<int>{16, 32, 64, 128};
    const std::string app_name = nas::NasApp(bench, cls).name();
    app_data = *cache.app_data(
        service::describe_app_inputs(app_name, base, threads, counts, counts),
        [&] { return profile_app(bench, cls, threads, counts); }, &source);
    note_source("app profile (" + app_name + ")", source);
  }

  const std::vector<int> spec_counts = {4, 8, 16, 32, 64, 128};
  core::SpecLibrary spec;
  if (flags.count("spec")) {
    spec = io::load_spec_library(flags.at("spec"));
  } else {
    spec = *cache.spec_library(
        service::describe_spec_inputs(base, {target}, spec_counts),
        [&] {
          std::cerr << "collecting SPEC-style library...\n";
          return experiments::collect_spec_library(base, {target},
                                                   spec_counts);
        },
        &source);
    note_source("spec library", source);
  }

  const auto imb_for = [&](const machine::Machine& m) {
    const auto db = cache.imb_database(
        service::describe_imb_inputs(m, imb::default_core_counts(),
                                     imb::default_message_sizes()),
        [&] { return imb::measure_database(m); }, &source);
    note_source("IMB database (" + m.name + ")", source);
    return *db;
  };
  imb::ImbDatabase base_imb = flags.count("base-imb")
                                  ? io::load_imb_database(flags.at("base-imb"))
                                  : imb_for(base);
  imb::ImbDatabase target_imb =
      flags.count("target-imb")
          ? io::load_imb_database(flags.at("target-imb"))
          : imb_for(target);

  core::Projector projector(base, spec, std::move(base_imb));
  projector.add_target(target_name, std::move(target_imb));
  const core::ProjectionResult r =
      projector.project(app_data, target_name, tasks);

  TextTable table({"Quantity", "Seconds"});
  table.set_title("Projection of " + app_data.app + " at " +
                  std::to_string(tasks) + " tasks onto " + target_name);
  table.add_row({"compute", TextTable::num(r.compute.target_compute, 3)});
  table.add_row({"communication (transfer)",
                 TextTable::num(r.comm.target_total() -
                                    r.comm.of(mpi::RoutineClass::
                                                  kPointToPointNonblocking)
                                        .target_wait -
                                    r.comm.of(mpi::RoutineClass::kCollective)
                                        .target_wait,
                                3)});
  table.add_row({"communication (total)",
                 TextTable::num(r.comm.target_total(), 3)});
  table.add_row({"TOTAL", TextTable::num(r.total_target(), 3)});
  table.print(std::cout);

  std::cout << "surrogate:";
  for (const core::SurrogateTerm& t : r.compute.surrogate.terms) {
    std::cout << ' ' << t.benchmark << '*' << TextTable::num(t.weight, 3);
  }
  std::cout << "\n";
  return 0;
}

/// Checks one batch row's app shape without registering anything; returns an
/// error message, or "" when the row is servable.  Shared between `batch`
/// (where it turns into usage errors) and `serve` (where it is the
/// admission-time RowValidator, run on connection threads — pure and
/// thread-safe by construction).
std::string validate_nas_row(const service::BatchRow& row) {
  if (row.app.rfind("file:", 0) == 0) {
    const std::filesystem::path path = row.app.substr(5);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
      return "app profile file not found: " + path.string();
    }
    return {};
  }
  const auto slash = row.app.find('/');
  if (slash == std::string::npos) {
    return "app must be 'BT|SP|LU/C|D' or 'file:PATH': " + row.app;
  }
  const std::string bench = row.app.substr(0, slash);
  if (bench != "BT" && bench != "SP" && bench != "LU") {
    return "unknown app (use BT, SP, or LU): " + bench;
  }
  const std::string cls = row.app.substr(slash + 1);
  if (cls != "C" && cls != "D") return "unknown class (use C or D): " + cls;
  return {};
}

/// Registers every app named by `rows` with an executor's inputs —
/// "file:PATH" rows load eagerly, NAS rows get a lazy profiling collector
/// keyed for the artifact cache.  Shared between `batch`, `sweep`, and the
/// server's per-batch/per-sweep setup (ProjectionService and
/// sweep::SweepRunner are both service::Inputs), so every path produces
/// identical cache keys.  Throws InvalidArgument for unservable app shapes.
void register_row_apps(service::Inputs& svc,
                       const std::vector<service::BatchRow>& rows) {
  for (const service::BatchRow& row : rows) {
    if (svc.has_app(row.app)) continue;
    if (row.app.rfind("file:", 0) == 0) {
      svc.add_app_file(row.app, row.app.substr(5));
      continue;
    }
    const std::string message = validate_nas_row(row);
    if (!message.empty()) throw swapp::InvalidArgument(message);
    const auto slash = row.app.find('/');
    const std::string bench_name = row.app.substr(0, slash);
    const nas::Benchmark bench = bench_name == "BT" ? nas::Benchmark::kBT
                                 : bench_name == "SP" ? nas::Benchmark::kSP
                                                      : nas::Benchmark::kLU;
    const nas::ProblemClass cls = row.app.substr(slash + 1) == "C"
                                      ? nas::ProblemClass::kC
                                      : nas::ProblemClass::kD;
    const std::vector<int> counts =
        bench == nas::Benchmark::kLU ? std::vector<int>{4, 8, 16}
                                     : std::vector<int>{16, 32, 64, 128};
    const int threads = row.threads;
    svc.add_app(row.app,
                service::describe_app_inputs(nas::NasApp(bench, cls).name(),
                                             svc.base(), threads, counts,
                                             counts),
                [=] { return profile_app(bench, cls, threads, counts); });
  }
}

void install_spec_collector(service::Inputs& svc) {
  svc.set_spec_collector(&experiments::collect_spec_library);
}

/// One row of the batch result table, decoupled from where the numbers came
/// from (a local BatchReport or a decoded server response).
struct BatchTableRow {
  std::string app;
  std::string target;
  int tasks = 0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  double total_s = 0.0;
};

/// Renders the batch result table to stdout.  `batch` and `request` both
/// call this, and record doubles round-trip exactly, so their stdout is
/// byte-identical for the same requests.
void print_batch_table(const std::vector<BatchTableRow>& rows) {
  TextTable table({"App", "Target", "Tasks", "Compute s", "Comm s",
                   "Total s"});
  table.set_title("Batch projections (" + std::to_string(rows.size()) +
                  " requests)");
  for (const BatchTableRow& r : rows) {
    table.add_row({r.app, r.target, std::to_string(r.tasks),
                   TextTable::num(r.compute_s, 3),
                   TextTable::num(r.comm_s, 3),
                   TextTable::num(r.total_s, 3)});
  }
  table.print(std::cout);
}

/// Writes the machine-readable "swapp-batch-result" document — result,
/// phase, and artifact rows, exactly the payload a server would answer
/// with — so downstream tooling parses one format whether the run was
/// local (`batch --out`) or served (`request --out`).
void write_result_document(const std::string& path,
                           const server::Response& response) {
  std::ofstream out(path);
  if (!out) throw FileError("cannot open output file for writing", path);
  out << server::encode_response(response);
  std::cerr << "wrote " << path << "\n";
}

std::vector<service::BatchRow> read_batch_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot open requests file: " + path);
  try {
    return service::read_batch_requests(in);
  } catch (const swapp::Error& e) {
    usage(e.what());
  }
}

int cmd_batch(const std::map<std::string, std::string>& flags) {
  const machine::Machine base = machine::make_power5_hydra();
  // Probe --out before the (possibly expensive) run: an unwritable path
  // should fail in milliseconds, not after minutes of simulation.
  if (flags.count("out")) obs::require_writable(flags.at("out"));
  const std::vector<service::BatchRow> rows =
      read_batch_file(need(flags, "requests"));

  // --- configure the service ----------------------------------------------
  service::ServiceConfig config;
  if (flags.count("cache-dir")) config.cache_dir = flags.at("cache-dir");
  if (flags.count("cache-dir-max-bytes")) {
    config.cache_dir_max_bytes =
        server::parse_byte_size(flags.at("cache-dir-max-bytes"));
  }
  service::ProjectionService svc(base, service::row_targets(rows), config);
  install_spec_collector(svc);
  try {
    register_row_apps(svc, rows);
  } catch (const swapp::Error& e) {
    usage(e.what());
  }

  std::vector<service::ServiceRequest> requests;
  requests.reserve(rows.size());
  for (const service::BatchRow& row : rows) {
    requests.push_back(service::to_service_request(row));
  }

  // --- run -----------------------------------------------------------------
  // Progress and reuse information go to stderr; stdout carries only the
  // result table, so cold and warm runs can be diffed byte-for-byte.  The
  // plan/cache summary is the metrics snapshot itself, so recording is
  // forced on for the batch whether or not --metrics was given.
  obs::set_metrics_enabled(true);
  const service::ProjectionService::BatchReport report = svc.run(requests);
  for (const service::ProjectionService::ArtifactNote& note :
       report.artifacts) {
    note_source(note.name, note.source);
  }
  const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
  print_metrics(std::cerr, snapshot, "planner.");
  print_metrics(std::cerr, snapshot, "cache.");
  std::cerr << "phases:";
  for (const service::ProjectionService::PhaseTime& p : report.phases) {
    std::cerr << ' ' << p.phase << '=' << TextTable::num(p.seconds, 3) << 's';
  }
  std::cerr << "\n";
  if (report.warm()) std::cerr << "warm batch: no simulation performed\n";

  if (flags.count("out")) {
    server::Response document;
    document.ok = true;
    for (const core::ProjectionResult& r : report.results) {
      document.results.push_back(server::ResultRow{
          r.app, r.target, r.cores, r.compute.target_compute,
          r.comm.target_total(), r.total_target()});
    }
    for (const service::ProjectionService::PhaseTime& p : report.phases) {
      document.phases.push_back(server::PhaseRow{p.phase, p.seconds});
    }
    for (const service::ProjectionService::ArtifactNote& note :
         report.artifacts) {
      document.artifacts.push_back(
          server::ArtifactRow{note.name, to_string(note.source)});
    }
    write_result_document(flags.at("out"), document);
  }

  std::vector<BatchTableRow> table_rows;
  for (const core::ProjectionResult& r : report.results) {
    table_rows.push_back(BatchTableRow{r.app, r.target, r.cores,
                                       r.compute.target_compute,
                                       r.comm.target_total(),
                                       r.total_target()});
  }
  print_batch_table(table_rows);
  return 0;
}

// --- sweep ------------------------------------------------------------------

/// Plan summary rebuilt from the result document — the same wording
/// SweepPlan::describe() produces, so local and served sweeps log the same
/// factoring line.
std::string describe_sweep_plan(const sweep::SweepResultDoc& doc) {
  std::ostringstream os;
  os << doc.points << (doc.points == 1 ? " point -> " : " points -> ")
     << doc.compute_classes << " spec target"
     << (doc.compute_classes == 1 ? "" : "s") << ", " << doc.searches
     << " GA search" << (doc.searches == 1 ? "" : "es") << ", "
     << doc.comm_classes << " imb database"
     << (doc.comm_classes == 1 ? "" : "s") << " (naive: "
     << doc.naive_spec_targets << "/" << doc.naive_searches << "/"
     << doc.naive_imb_databases << ")";
  return os.str();
}

/// Renders the sweep table: one row per point, one column per axis (the
/// resolved machine-model coordinate), then the projected seconds.  Local
/// and served sweeps both print from the document, and record doubles
/// round-trip exactly, so their stdout is byte-identical for the same spec.
void print_sweep_table(const sweep::SweepResultDoc& doc) {
  std::vector<std::string> headers{"Point"};
  for (const sweep::SweepResultDoc::AxisRow& axis : doc.axes) {
    headers.push_back(axis.field);
  }
  for (const char* tail : {"Tasks", "Compute s", "Comm s", "Total s"}) {
    headers.push_back(tail);
  }
  TextTable table(headers);
  table.set_title("Sweep projections (" + doc.app + " -> " + doc.target +
                  ", " + std::to_string(doc.points) + " points)");
  for (const sweep::SweepResultDoc::PointRow& row : doc.rows) {
    std::vector<std::string> cells{std::to_string(row.index)};
    for (const sweep::SweepResultDoc::AxisRow& axis : doc.axes) {
      std::string cell = "-";
      for (const sweep::Coordinate& coord : row.coords) {
        if (coord.field == axis.field) cell = TextTable::num(coord.value, 3);
      }
      cells.push_back(cell);
    }
    cells.push_back(std::to_string(row.tasks));
    cells.push_back(TextTable::num(row.compute_s, 3));
    cells.push_back(TextTable::num(row.comm_s, 3));
    cells.push_back(TextTable::num(row.total_s, 3));
    table.add_row(cells);
  }
  table.print(std::cout);
}

/// Writes the machine-readable "swapp-sweep-result" document, exactly the
/// payload a server answers a sweep request with.
void write_sweep_document(const std::string& path,
                          const sweep::SweepResultDoc& doc) {
  std::ofstream out(path);
  if (!out) throw FileError("cannot open output file for writing", path);
  sweep::write_sweep_result(out, doc);
  std::cerr << "wrote " << path << "\n";
}

int cmd_sweep(const std::map<std::string, std::string>& flags) {
  if (flags.count("out")) obs::require_writable(flags.at("out"));
  const std::string spec_path = need(flags, "spec");
  std::ifstream in(spec_path);
  if (!in) usage("cannot open sweep spec file: " + spec_path);
  sweep::SweepSpec spec;
  try {
    spec = sweep::read_sweep_spec(in);
  } catch (const swapp::Error& e) {
    usage(e.what());
  }

  if (flags.count("socket")) {
    // Served path: forward the canonical spec document; the daemon expands,
    // plans, and executes it against its resident cache.
    std::ostringstream payload;
    sweep::write_sweep_spec(payload, spec);
    server::Client client(flags.at("socket"));
    const std::string answer = client.call_raw(payload.str());
    if (!sweep::is_sweep_result(answer)) {
      const server::Response response = server::decode_response(answer);
      std::cerr << "error: server " << server::to_string(response.error)
                << ": " << response.message << "\n";
      return 1;
    }
    std::istringstream decoded(answer);
    const sweep::SweepResultDoc doc = sweep::read_sweep_result(decoded);
    std::cerr << "plan: " << describe_sweep_plan(doc) << "\n";
    for (const sweep::SweepResultDoc::ArtifactRow& a : doc.artifacts) {
      std::cerr << a.name << ": " << a.source << "\n";
    }
    std::cerr << "phases:";
    for (const sweep::SweepResultDoc::PhaseRow& p : doc.phases) {
      std::cerr << ' ' << p.phase << '=' << TextTable::num(p.seconds, 3)
                << 's';
    }
    std::cerr << "\n";
    if (flags.count("out")) write_sweep_document(flags.at("out"), doc);
    print_sweep_table(doc);
    return 0;
  }

  // Local path: a standalone SweepRunner over --cache-dir.  Progress and
  // reuse information go to stderr; stdout carries only the table, so cold
  // and warm sweeps can be diffed byte-for-byte.
  const machine::Machine base = machine::make_power5_hydra();
  sweep::SweepConfig config;
  if (flags.count("cache-dir")) config.cache_dir = flags.at("cache-dir");
  if (flags.count("cache-dir-max-bytes")) {
    config.cache_dir_max_bytes =
        server::parse_byte_size(flags.at("cache-dir-max-bytes"));
  }
  sweep::SweepRunner runner(base, {machine::machine_by_name(spec.target)},
                            config);
  install_spec_collector(runner);
  try {
    register_row_apps(runner, {service::BatchRow{spec.app, spec.target,
                                                 spec.tasks, spec.threads,
                                                 spec.reference}});
  } catch (const swapp::Error& e) {
    usage(e.what());
  }

  obs::set_metrics_enabled(true);
  const sweep::SweepRunner::SweepReport report = runner.run(spec);
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const sweep::SweepPoint& point = report.points[i];
    std::cerr << "point " << point.index + 1 << "/" << report.points.size()
              << ": " << point.machine.name << " tasks=" << point.tasks
              << " -> " << TextTable::num(report.results[i].total_target(), 3)
              << "s\n";
  }
  const sweep::SweepResultDoc doc = sweep::make_sweep_result(spec, report);

  std::cerr << "plan: " << describe_sweep_plan(doc) << "\n";
  for (const sweep::SweepRunner::ArtifactNote& note : report.artifacts) {
    note_source(note.name, note.source);
  }
  const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
  print_metrics(std::cerr, snapshot, "sweep.");
  print_metrics(std::cerr, snapshot, "cache.");
  std::cerr << "phases:";
  for (const sweep::SweepRunner::PhaseTime& p : report.phases) {
    std::cerr << ' ' << p.phase << '=' << TextTable::num(p.seconds, 3) << 's';
  }
  std::cerr << "\n";
  if (report.warm()) std::cerr << "warm sweep: no simulation performed\n";

  if (flags.count("out")) write_sweep_document(flags.at("out"), doc);
  print_sweep_table(doc);
  return 0;
}

// --- serve / request --------------------------------------------------------

/// Written by cmd_serve before installing the signal handlers; the handler
/// only does an async-signal-safe write to it.
int g_shutdown_fd = -1;

void handle_shutdown_signal(int) {
  if (g_shutdown_fd < 0) return;
  const char byte = 's';
  [[maybe_unused]] const ssize_t rc = ::write(g_shutdown_fd, &byte, 1);
}

int cmd_serve(const std::map<std::string, std::string>& flags) {
  const machine::Machine base = machine::make_power5_hydra();
  server::ServerConfig config;
  config.socket_path = server::parse_socket_path(need(flags, "socket"));
  if (flags.count("cache-dir")) {
    config.service.cache_dir = flags.at("cache-dir");
  }
  if (flags.count("cache-dir-max-bytes")) {
    config.service.cache_dir_max_bytes =
        server::parse_byte_size(flags.at("cache-dir-max-bytes"));
  }
  if (flags.count("max-queue")) {
    config.max_queue = server::parse_queue_depth(flags.at("max-queue"));
  }
  if (flags.count("max-request-bytes")) {
    config.max_request_bytes = static_cast<std::size_t>(
        server::parse_byte_size(flags.at("max-request-bytes")));
  }

  // The daemon's metrics are always on and exact: recording costs about one
  // counter per GA generation, noise next to the search it counts.
  obs::set_metrics_enabled(true);

  server::Server srv(
      base, config,
      [](service::ProjectionService& svc,
         const std::vector<service::BatchRow>& rows) {
        install_spec_collector(svc);
        register_row_apps(svc, rows);
      },
      [](const service::BatchRow& row) { return validate_nas_row(row); },
      [](sweep::SweepRunner& runner, const sweep::SweepSpec& spec) {
        install_spec_collector(runner);
        register_row_apps(runner, {service::BatchRow{spec.app, spec.target,
                                                     spec.tasks, spec.threads,
                                                     spec.reference}});
      });
  srv.start();

  g_shutdown_fd = srv.shutdown_fd();
  struct sigaction action = {};
  action.sa_handler = handle_shutdown_signal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  std::cerr << "serving on " << config.socket_path.string() << " (queue depth "
            << config.max_queue << ")\n";
  srv.wait();
  g_shutdown_fd = -1;
  std::cerr << "served " << srv.requests_served() << " requests in "
            << srv.batches_run() << " batches over "
            << srv.connections_accepted() << " connections ("
            << srv.busy_rejections() << " busy, " << srv.protocol_errors()
            << " protocol errors)\n";
  return 0;
}

int cmd_request(const std::map<std::string, std::string>& flags) {
  if (flags.count("out")) obs::require_writable(flags.at("out"));
  const std::vector<service::BatchRow> rows =
      read_batch_file(need(flags, "requests"));
  // Re-encode rather than forwarding the file verbatim: the wire payload is
  // then always the canonical five-field document, whatever the file used.
  std::ostringstream payload;
  service::write_batch_requests(payload, rows);

  server::Client client(need(flags, "socket"));
  const server::Response response = client.call(payload.str());
  if (!response.ok) {
    std::cerr << "error: server " << server::to_string(response.error) << ": "
              << response.message << "\n";
    return 1;
  }

  for (const server::ArtifactRow& a : response.artifacts) {
    std::cerr << a.name << ": " << a.source << "\n";
  }
  std::cerr << "phases:";
  for (const server::PhaseRow& p : response.phases) {
    std::cerr << ' ' << p.phase << '=' << TextTable::num(p.seconds, 3) << 's';
  }
  std::cerr << "\n";

  // Record doubles round-trip exactly, so re-encoding the decoded response
  // reproduces the server's result rows byte for byte.
  if (flags.count("out")) write_result_document(flags.at("out"), response);

  std::vector<BatchTableRow> table_rows;
  for (const server::ResultRow& r : response.results) {
    table_rows.push_back(BatchTableRow{r.app, r.target, r.tasks, r.compute_s,
                                       r.comm_s, r.total_s});
  }
  print_batch_table(table_rows);
  return 0;
}

// --- stats rendering --------------------------------------------------------

/// The head table every stats/health answer carries: liveness, queue and
/// in-flight state, lifetime counters.
void print_stats_head(std::ostream& os, const server::StatsReport& r) {
  TextTable table({"Field", "Value"});
  table.set_title(std::string("Server status: ") +
                  (r.draining ? "draining" : "ok"));
  table.add_row({"uptime s", TextTable::num(r.uptime_s, 1)});
  table.add_row({"queue depth", std::to_string(r.queue_depth) + " / " +
                                    std::to_string(r.queue_capacity)});
  table.add_row({"inflight batches", std::to_string(r.inflight_batches)});
  table.add_row({"inflight rows", std::to_string(r.inflight_rows)});
  table.add_row({"connections", std::to_string(r.connections)});
  table.add_row({"requests served", std::to_string(r.requests)});
  table.add_row({"batches run", std::to_string(r.batches)});
  table.add_row({"busy rejections", std::to_string(r.busy_rejections)});
  table.add_row({"protocol errors", std::to_string(r.protocol_errors)});
  table.add_row({"stats requests", std::to_string(r.stats_requests)});
  table.print(os);
}

/// One trailing window, compact: per-second counter rates and latency
/// quantiles.  Zero-activity metrics are dropped — a quiet window prints
/// nothing but its title line.
void print_stats_scope(std::ostream& os, const server::StatsScope& scope) {
  os << "\nwindow " << scope.name << " (covering "
     << TextTable::num(scope.seconds, 1) << "s)\n";
  const double seconds = scope.seconds > 0.0 ? scope.seconds : 1.0;
  TextTable counters({"Counter", "Delta", "Rate/s"});
  bool any_counter = false;
  for (const obs::CounterValue& c : scope.metrics.counters) {
    if (c.value == 0) continue;
    any_counter = true;
    counters.add_row({c.name, std::to_string(c.value),
                      TextTable::num(static_cast<double>(c.value) / seconds,
                                     2)});
  }
  if (any_counter) counters.print(os);
  TextTable hist({"Histogram", "Count", "Mean", "p50", "p99", "Max"});
  bool any_hist = false;
  for (const obs::HistogramValue& h : scope.metrics.histograms) {
    if (h.count == 0) continue;
    any_hist = true;
    hist.add_row({h.name, std::to_string(h.count),
                  TextTable::num(h.sum / static_cast<double>(h.count), 1),
                  TextTable::num(h.quantile(0.5), 1),
                  TextTable::num(h.quantile(0.99), 1),
                  TextTable::num(h.max, 1)});
  }
  if (any_hist) hist.print(os);
}

void print_stats_report(std::ostream& os, const server::StatsReport& r) {
  print_stats_head(os, r);
  for (const server::StatsScope& scope : r.scopes) {
    if (scope.name == "lifetime") {
      os << "\nlifetime metrics\n";
      print_metrics(os, scope.metrics);
    } else {
      print_stats_scope(os, scope);
    }
  }
}

/// Prometheus text exposition: the server head as swapp_server_* series,
/// then the lifetime snapshot (scrapers derive windows themselves).
void print_stats_prometheus(std::ostream& os, const server::StatsReport& r) {
  const auto gauge = [&os](const std::string& name, const std::string& v) {
    os << "# TYPE " << name << " gauge\n" << name << " " << v << "\n";
  };
  const auto counter = [&os](const std::string& name, std::uint64_t v) {
    os << "# TYPE " << name << " counter\n" << name << " " << v << "\n";
  };
  gauge("swapp_server_up", r.draining ? "0" : "1");
  gauge("swapp_server_uptime_seconds", TextTable::num(r.uptime_s, 3));
  gauge("swapp_server_queue_depth", std::to_string(r.queue_depth));
  gauge("swapp_server_queue_capacity", std::to_string(r.queue_capacity));
  gauge("swapp_server_inflight_batches", std::to_string(r.inflight_batches));
  gauge("swapp_server_inflight_rows", std::to_string(r.inflight_rows));
  counter("swapp_server_connections_total", r.connections);
  counter("swapp_server_requests_total", r.requests);
  counter("swapp_server_batches_total", r.batches);
  counter("swapp_server_busy_rejections_total", r.busy_rejections);
  counter("swapp_server_protocol_errors_total", r.protocol_errors);
  counter("swapp_server_stats_requests_total", r.stats_requests);
  for (const server::StatsScope& scope : r.scopes) {
    if (scope.name != "lifetime") continue;
    // The head already exported these as authoritative swapp_server_* series;
    // re-emitting the obs counters of the same name would produce duplicate
    // series, which scrapers reject.
    obs::MetricsSnapshot metrics = scope.metrics;
    metrics.counters.erase(
        std::remove_if(metrics.counters.begin(), metrics.counters.end(),
                       [](const obs::CounterValue& c) {
                         return c.name == "server.requests" ||
                                c.name == "server.batches" ||
                                c.name == "server.stats_requests";
                       }),
        metrics.counters.end());
    obs::write_metrics_prometheus(os, metrics);
  }
}

int cmd_stats_live(const std::map<std::string, std::string>& flags) {
  const std::string socket = flags.at("socket");
  const unsigned watch = flags.count("watch")
                             ? server::parse_watch_seconds(flags.at("watch"))
                             : 0;
  const std::string request = server::encode_stats_request(
      flags.count("health") ? server::StatsKind::kHealth
                            : server::StatsKind::kStats);
  while (true) {
    // Reconnect per round: a watch loop then survives a server restart the
    // same way a fresh invocation would.
    server::Client client(socket);
    const server::StatsReport report =
        server::decode_stats_report(client.call_raw(request));
    if (flags.count("prometheus")) {
      print_stats_prometheus(std::cout, report);
    } else {
      print_stats_report(std::cout, report);
    }
    if (watch == 0) break;
    std::cout << "\n" << std::flush;
    ::sleep(watch);
  }
  return 0;
}

int cmd_stats(const std::map<std::string, std::string>& flags) {
  if (flags.count("socket")) {
    SWAPP_REQUIRE(!flags.count("metrics") && !flags.count("trace"),
                  "stats takes --socket, --metrics, or --trace, not several");
    return cmd_stats_live(flags);
  }
  if (flags.count("trace")) {
    SWAPP_REQUIRE(!flags.count("metrics"),
                  "stats takes --metrics or --trace, not both");
    const std::string path = flags.at("trace");
    std::ifstream in(path);
    SWAPP_REQUIRE(in.good(), "cannot open trace file '" + path + "'");
    // Lenient read: a corrupted line (half-written flush, truncation) warns
    // and skips, so one bad record does not hide the rest of the trace.
    const obs::TraceReadReport report =
        obs::read_trace_jsonl_lenient(in, std::cerr);
    if (report.skipped_lines > 0) {
      std::cerr << "warning: skipped " << report.skipped_lines
                << " malformed line(s) of '" << path << "'\n";
    }
    if (report.events.empty()) {
      std::cerr << "trace file '" << path
                << "' contains no events; nothing to aggregate\n";
      return 0;
    }
    print_span_rollup(std::cout, rollup_spans(report.events));
    return 0;
  }
  const obs::MetricsSnapshot snapshot =
      obs::load_metrics_file(need(flags, "metrics"));
  print_metrics(std::cout, snapshot,
                flags.count("filter") ? flags.at("filter") : "");
  return 0;
}

/// One command and every flag it reads; any other flag on its command line
/// exits 2, so a typo'd or retired flag fails instead of being ignored.
struct Command {
  const char* name;
  std::vector<std::string> flags;
  int (*run)(const std::map<std::string, std::string>&);
};

int dispatch(const std::string& command,
             const std::map<std::string, std::string>& flags) {
  static const std::vector<Command> commands = {
      {"list-machines", {}, cmd_list_machines},
      {"collect-imb", {"machine", "out"}, cmd_collect_imb},
      {"collect-spec", {"targets", "counts", "out"}, cmd_collect_spec},
      {"profile", {"app", "class", "threads", "counts", "out"}, cmd_profile},
      {"project",
       {"target", "tasks", "cache-dir", "app-data", "app", "class", "threads",
        "spec", "base-imb", "target-imb"},
       cmd_project},
      {"batch", {"requests", "cache-dir", "cache-dir-max-bytes", "out"},
       cmd_batch},
      {"sweep", {"spec", "cache-dir", "cache-dir-max-bytes", "out", "socket"},
       cmd_sweep},
      {"serve",
       {"socket", "cache-dir", "cache-dir-max-bytes", "max-queue",
        "max-request-bytes"},
       cmd_serve},
      {"request", {"socket", "requests", "out"}, cmd_request},
      {"stats",
       {"metrics", "filter", "trace", "socket", "watch", "health",
        "prometheus"},
       cmd_stats},
  };
  for (const Command& c : commands) {
    if (command != c.name) continue;
    for (const auto& [key, value] : flags) {
      if (std::find(c.flags.begin(), c.flags.end(), key) == c.flags.end()) {
        usage("unknown flag --" + key);
      }
    }
    return c.run(flags);
  }
  usage("unknown command: " + command);
}

/// Removes a global flag from the parsed set (commands never see it);
/// returns its value, or "" when absent.
std::string take_flag(std::map<std::string, std::string>& flags,
                      const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) return {};
  std::string value = it->second;
  flags.erase(it);
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    auto flags = parse_flags(argc, argv, 2);
    // `stats` reads a snapshot rather than recording one, so it keeps its
    // --metrics flag; everywhere else --trace/--metrics are the global
    // recording switches.
    std::string trace_path;
    std::string metrics_path;
    if (command != "stats") {
      trace_path = take_flag(flags, "trace");
      metrics_path = take_flag(flags, "metrics");
    }
    // Probe writability up front: a typo'd --trace/--metrics path should
    // fail before the run, not throw away its recording afterwards.
    if (!trace_path.empty()) obs::require_writable(trace_path);
    if (!metrics_path.empty()) obs::require_writable(metrics_path);
    if (!trace_path.empty()) obs::set_tracing_enabled(true);
    if (!metrics_path.empty()) obs::set_metrics_enabled(true);
    const int rc = dispatch(command, flags);
    // Written only on success: an aborted command would leave open spans and
    // a half-told story.
    if (!trace_path.empty()) {
      obs::write_trace_file(trace_path, obs::drain_trace());
    }
    if (!metrics_path.empty()) {
      obs::write_metrics_file(metrics_path, obs::metrics_snapshot());
    }
    return rc;
  } catch (const swapp::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
