#include "service/inputs.h"

#include <sstream>
#include <utility>

#include "core/projector.h"
#include "io/persist.h"
#include "io/record.h"
#include "obs/metrics.h"
#include "support/error.h"

namespace swapp::service {

std::shared_ptr<ArtifactCache> make_cache(const CacheConfig& config) {
  if (config.shared_cache) return config.shared_cache;
  return std::make_shared<ArtifactCache>(
      config.cache_dir, ArtifactCache::kDefaultCapacity,
      config.cache_dir_max_bytes);
}

bool Inputs::Report::warm() const {
  for (const ArtifactNote& note : artifacts) {
    if (note.source == ArtifactSource::kComputed) return false;
  }
  return true;
}

Inputs::PhaseClock::PhaseClock(std::vector<PhaseTime>& phases)
    : phases_(phases), start_(std::chrono::steady_clock::now()) {}

void Inputs::PhaseClock::end(const char* phase) {
  const std::chrono::steady_clock::time_point now =
      std::chrono::steady_clock::now();
  phases_.push_back(PhaseTime{
      phase, std::chrono::duration<double>(now - start_).count()});
  start_ = now;
}

void Inputs::export_phases(const std::string& prefix,
                           const std::vector<PhaseTime>& phases) {
  if (!obs::metrics_enabled()) return;
  for (const PhaseTime& p : phases) {
    obs::Gauge(prefix + ".phase_s." + p.phase).set(p.seconds);
    obs::Histogram(prefix + ".phase_us." + p.phase).observe(p.seconds * 1e6);
  }
}

std::string Inputs::app_key_material(const std::string& canonical,
                                     const core::AppBaseData& data) {
  if (!canonical.empty()) return canonical;
  std::ostringstream os;
  io::write_app_data(os, data);
  return "app-content:" + fingerprint_hex(fingerprint(os.str()));
}

std::string Inputs::surrogate_key(
    const std::string& library_key, const std::string& app_material,
    const std::string& target, int search_ck, int threads,
    const core::ComputeProjectionOptions& options) {
  std::ostringstream key;
  key << library_key << app_material;
  {
    io::RecordWriter w(key, "swapp-search-inputs", 1);
    w.row("search")
        .field(target)
        .field(search_ck)
        .field(threads)
        .field(core::compute_options_key(options));
  }
  return key.str();
}

Inputs::Inputs(machine::Machine base, std::vector<machine::Machine> targets,
               const CacheConfig& config)
    : base_(std::move(base)),
      targets_(std::move(targets)),
      cache_(make_cache(config)),
      collect_imb_([](const machine::Machine& m) {
        return imb::measure_database(m);
      }) {
  SWAPP_REQUIRE(!targets_.empty(), "needs at least one target machine");
}

void Inputs::set_spec_collector(SpecCollector collect) {
  collect_spec_ = std::move(collect);
}

void Inputs::set_imb_collector(ImbCollector collect) {
  SWAPP_REQUIRE(collect != nullptr, "IMB collector must be callable");
  collect_imb_ = std::move(collect);
}

void Inputs::add_app(const std::string& name, std::string canonical_inputs,
                     AppCollector collect) {
  SWAPP_REQUIRE(collect != nullptr, "app collector must be callable");
  apps_[name] =
      AppEntry{std::move(canonical_inputs), std::move(collect), nullptr};
}

void Inputs::add_app_file(const std::string& name,
                          const std::filesystem::path& path) {
  apps_[name] = AppEntry{
      {}, nullptr, std::make_shared<const core::AppBaseData>(
                       io::load_app_data(path))};
}

bool Inputs::has_app(const std::string& name) const {
  return apps_.find(name) != apps_.end();
}

const machine::Machine& Inputs::target(const std::string& name) const {
  for (const machine::Machine& t : targets_) {
    if (t.name == name) return t;
  }
  throw NotFound("target not configured: " + name);
}

Inputs::Acquired<core::SpecLibrary> Inputs::spec_library(
    const std::vector<machine::Machine>& targets,
    const std::vector<int>& task_counts) const {
  SWAPP_REQUIRE(collect_spec_ != nullptr,
                "spec collector not set (see set_spec_collector)");
  Acquired<core::SpecLibrary> got;
  got.key = describe_spec_inputs(base_, targets, task_counts);
  got.value = cache_->spec_library(
      got.key, [&] { return collect_spec_(base_, targets, task_counts); },
      &got.source);
  return got;
}

Inputs::Acquired<imb::ImbDatabase> Inputs::imb_database(
    const machine::Machine& m) const {
  Acquired<imb::ImbDatabase> got;
  got.key = describe_imb_inputs(m, imb::default_core_counts(),
                                imb::default_message_sizes());
  got.value = cache_->imb_database(
      got.key, [&] { return collect_imb_(m); }, &got.source);
  return got;
}

Inputs::Acquired<core::AppBaseData> Inputs::app_profile(
    const std::string& name) const {
  const auto it = apps_.find(name);
  if (it == apps_.end()) throw NotFound("app not registered: " + name);
  const AppEntry& entry = it->second;
  Acquired<core::AppBaseData> got;
  if (entry.fixed) {
    got.value = entry.fixed;
    got.source = ArtifactSource::kMemory;
    return got;
  }
  got.key = entry.canonical;
  got.value = cache_->app_data(entry.canonical, entry.collect, &got.source);
  return got;
}

}  // namespace swapp::service
