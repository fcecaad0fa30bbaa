#include "cts/sim/shard.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"

namespace cts::sim {

namespace {

constexpr const char* kSchema = "cts.shard.v1";

/// Strict full-string unsigned parse for the seed / spec fields.
std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  std::uint64_t value = 0;
  util::require(util::try_parse_u64(text, &value),
                what + ": expected a non-negative integer, got '" + text +
                    "'");
  return value;
}

std::uint64_t as_u64(const obs::JsonValue& v, const char* what) {
  return v.as_uint(std::string("cts.shard.v1: ") + what);
}

void write_config(obs::JsonWriter& w, const ReplicationConfig& config) {
  w.begin_object();
  w.key("replications").value(static_cast<std::uint64_t>(config.replications));
  w.key("frames_per_replication").value(config.frames_per_replication);
  w.key("warmup_frames").value(config.warmup_frames);
  w.key("n_sources").value(static_cast<std::uint64_t>(config.n_sources));
  w.key("capacity_cells").value(config.capacity_cells);
  // Decimal string: a JSON double would silently round seeds >= 2^53.
  w.key("master_seed").value(std::to_string(config.master_seed));
  w.key("shard_index").value(static_cast<std::uint64_t>(config.shard_index));
  w.key("shard_count").value(static_cast<std::uint64_t>(config.shard_count));
  w.key("buffer_sizes_cells").begin_array();
  for (const double b : config.buffer_sizes_cells) w.value(b);
  w.end_array();
  w.key("bop_thresholds_cells").begin_array();
  for (const double t : config.bop_thresholds_cells) w.value(t);
  w.end_array();
  w.end_object();
}

ReplicationConfig parse_config(const obs::JsonValue& v) {
  ReplicationConfig config;
  config.replications =
      static_cast<std::size_t>(as_u64(v.at("replications"), "replications"));
  config.frames_per_replication =
      as_u64(v.at("frames_per_replication"), "frames_per_replication");
  config.warmup_frames = as_u64(v.at("warmup_frames"), "warmup_frames");
  config.n_sources =
      static_cast<std::size_t>(as_u64(v.at("n_sources"), "n_sources"));
  config.capacity_cells = v.at("capacity_cells").as_number();
  config.master_seed =
      parse_u64(v.at("master_seed").as_string(), "cts.shard.v1 master_seed");
  config.shard_index =
      static_cast<std::size_t>(as_u64(v.at("shard_index"), "shard_index"));
  config.shard_count =
      static_cast<std::size_t>(as_u64(v.at("shard_count"), "shard_count"));
  for (const obs::JsonValue& b : v.at("buffer_sizes_cells").items) {
    config.buffer_sizes_cells.push_back(b.as_number());
  }
  for (const obs::JsonValue& t : v.at("bop_thresholds_cells").items) {
    config.bop_thresholds_cells.push_back(t.as_number());
  }
  return config;
}

void write_sample(obs::JsonWriter& w, const ReplicationSample& sample) {
  w.begin_object();
  w.key("rep").value(sample.rep);
  w.key("frames").value(sample.run.frames);
  w.key("arrived_cells").value(sample.run.arrived_cells);
  w.key("clr").begin_array();
  for (const ClrTally& tally : sample.run.clr) {
    w.begin_object();
    w.key("buffer_cells").value(tally.buffer_cells);
    w.key("lost_cells").value(tally.lost_cells);
    w.key("loss_frames").value(tally.loss_frames);
    w.end_object();
  }
  w.end_array();
  w.key("bop").begin_array();
  for (const BopTally& tally : sample.run.bop) {
    w.begin_object();
    w.key("threshold_cells").value(tally.threshold_cells);
    w.key("exceed_frames").value(tally.exceed_frames);
    w.end_object();
  }
  w.end_array();
  w.key("peak_workload_cells").value(sample.run.peak_workload_cells);
  w.end_object();
}

ReplicationSample parse_sample(const obs::JsonValue& v) {
  ReplicationSample sample;
  sample.rep = as_u64(v.at("rep"), "rep");
  sample.run.frames = as_u64(v.at("frames"), "frames");
  sample.run.arrived_cells = v.at("arrived_cells").as_number();
  sample.run.peak_workload_cells = v.at("peak_workload_cells").as_number();
  for (const obs::JsonValue& t : v.at("clr").items) {
    ClrTally tally;
    tally.buffer_cells = t.at("buffer_cells").as_number();
    tally.lost_cells = t.at("lost_cells").as_number();
    tally.loss_frames = as_u64(t.at("loss_frames"), "loss_frames");
    sample.run.clr.push_back(tally);
  }
  for (const obs::JsonValue& t : v.at("bop").items) {
    BopTally tally;
    tally.threshold_cells = t.at("threshold_cells").as_number();
    tally.exceed_frames = as_u64(t.at("exceed_frames"), "exceed_frames");
    sample.run.bop.push_back(tally);
  }
  return sample;
}

/// The fields that must agree across shards for the merge to be meaningful.
void require_compatible(const ReplicationConfig& a, const ReplicationConfig& b,
                        const std::string& label) {
  util::require(
      a.replications == b.replications &&
          a.frames_per_replication == b.frames_per_replication &&
          a.warmup_frames == b.warmup_frames &&
          a.n_sources == b.n_sources && a.capacity_cells == b.capacity_cells &&
          a.master_seed == b.master_seed &&
          a.shard_count == b.shard_count &&
          a.buffer_sizes_cells == b.buffer_sizes_cells &&
          a.bop_thresholds_cells == b.bop_thresholds_cells,
      "merge_shard_files: experiment '" + label +
          "' was run with different configurations across shards");
}

}  // namespace

ShardSpec parse_shard_spec(const std::string& text) {
  const auto slash = text.find('/');
  util::require(slash != std::string::npos && slash > 0 &&
                    slash + 1 < text.size(),
                "shard spec: expected INDEX/COUNT (e.g. 0/4), got '" + text +
                    "'");
  ShardSpec spec;
  spec.index = static_cast<std::size_t>(
      parse_u64(text.substr(0, slash), "shard spec '" + text + "' index"));
  spec.count = static_cast<std::size_t>(
      parse_u64(text.substr(slash + 1), "shard spec '" + text + "' count"));
  util::require(spec.count >= 1,
                "shard spec: count must be >= 1, got '" + text + "'");
  util::require(spec.index < spec.count,
                "shard spec: index must be < count, got '" + text + "'");
  return spec;
}

std::string format_shard_spec(const ShardSpec& spec) {
  return std::to_string(spec.index) + "/" + std::to_string(spec.count);
}

void write_shard_json(std::ostream& os, const ShardFile& file) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("shard").begin_object();
  w.key("index").value(static_cast<std::uint64_t>(file.shard_index));
  w.key("count").value(static_cast<std::uint64_t>(file.shard_count));
  w.end_object();
  w.key("experiments").begin_array();
  for (const ShardExperiment& experiment : file.experiments) {
    w.begin_object();
    w.key("label").value(experiment.label);
    w.key("config");
    write_config(w, experiment.config);
    w.key("reps").begin_array();
    for (const ReplicationSample& sample : experiment.samples) {
      write_sample(w, sample);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  write_metrics_snapshot(w, file.metrics);
  w.end_object();
}

ShardFile parse_shard_file(const std::string& text) {
  const obs::JsonValue doc = obs::json_parse(text);
  util::require(doc.is_object() && doc.find("schema") != nullptr &&
                    doc.at("schema").as_string() == kSchema,
                std::string("parse_shard_file: not a ") + kSchema +
                    " document");
  ShardFile file;
  file.shard_index =
      static_cast<std::size_t>(as_u64(doc.at("shard").at("index"), "index"));
  file.shard_count =
      static_cast<std::size_t>(as_u64(doc.at("shard").at("count"), "count"));
  util::require(file.shard_count >= 1 && file.shard_index < file.shard_count,
                "parse_shard_file: invalid shard header " +
                    format_shard_spec({file.shard_index, file.shard_count}));
  for (const obs::JsonValue& e : doc.at("experiments").items) {
    ShardExperiment experiment;
    experiment.label = e.at("label").as_string();
    experiment.config = parse_config(e.at("config"));
    for (const obs::JsonValue& r : e.at("reps").items) {
      experiment.samples.push_back(parse_sample(r));
    }
    // Samples must be strictly ascending by global index; the merge relies
    // on concatenation in shard order being the canonical order.
    for (std::size_t i = 1; i < experiment.samples.size(); ++i) {
      util::require(experiment.samples[i - 1].rep < experiment.samples[i].rep,
                    "parse_shard_file: replication samples out of order in "
                    "experiment '" + experiment.label + "'");
    }
    file.experiments.push_back(std::move(experiment));
  }
  file.metrics = obs::metrics_snapshot_from_json(doc.at("metrics"));
  return file;
}

ShardFile read_shard_file(const std::string& path) {
  std::ifstream in(path);
  util::require(static_cast<bool>(in),
                "read_shard_file: cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_shard_file(buffer.str());
  } catch (const util::InvalidArgument& e) {
    throw util::InvalidArgument(path + ": " + e.what());
  }
}

MergedShards merge_shard_files(const std::vector<ShardFile>& shards) {
  util::require(!shards.empty(), "merge_shard_files: no shard files");
  const std::size_t count = shards[0].shard_count;
  util::require(shards.size() == count,
                "merge_shard_files: got " + std::to_string(shards.size()) +
                    " files for a " + std::to_string(count) + "-shard run");
  std::vector<const ShardFile*> ordered(count, nullptr);
  for (const ShardFile& shard : shards) {
    util::require(shard.shard_count == count,
                  "merge_shard_files: shard files disagree on shard count");
    util::require(ordered[shard.shard_index] == nullptr,
                  "merge_shard_files: duplicate shard index " +
                      std::to_string(shard.shard_index));
    ordered[shard.shard_index] = &shard;
  }

  const std::size_t n_experiments = ordered[0]->experiments.size();
  MergedShards out;
  out.shard_count = count;
  for (const ShardFile* shard : ordered) {
    util::require(shard->experiments.size() == n_experiments,
                  "merge_shard_files: shard files disagree on the experiment "
                  "list");
  }

  for (std::size_t e = 0; e < n_experiments; ++e) {
    const ShardExperiment& first = ordered[0]->experiments[e];
    std::vector<ReplicationSample> samples;
    samples.reserve(first.config.replications);
    for (std::size_t i = 0; i < count; ++i) {
      const ShardExperiment& experiment = ordered[i]->experiments[e];
      util::require(experiment.label == first.label,
                    "merge_shard_files: experiment order differs across "
                    "shards ('" + experiment.label + "' vs '" + first.label +
                        "')");
      require_compatible(experiment.config, first.config, first.label);
      util::require(experiment.config.shard_index == i,
                    "merge_shard_files: experiment '" + first.label +
                        "' was recorded under the wrong shard index");
      samples.insert(samples.end(), experiment.samples.begin(),
                     experiment.samples.end());
    }
    util::require(samples.size() == first.config.replications,
                  "merge_shard_files: experiment '" + first.label + "' has " +
                      std::to_string(samples.size()) + " samples for " +
                      std::to_string(first.config.replications) +
                      " replications");
    for (std::size_t k = 0; k < samples.size(); ++k) {
      util::require(samples[k].rep == k,
                    "merge_shard_files: experiment '" + first.label +
                        "' is missing replication " + std::to_string(k));
    }

    MergedExperiment merged;
    merged.label = first.label;
    merged.config = first.config;
    merged.config.shard_index = 0;
    merged.config.shard_count = 1;
    merged.result = aggregate_replications(first.config.buffer_sizes_cells,
                                           first.config.bop_thresholds_cells,
                                           std::move(samples));
    out.experiments.push_back(std::move(merged));
  }

  // Registries fold in shard-index order, so the merged snapshot is
  // deterministic for any completion order of the workers.
  for (const ShardFile* shard : ordered) out.metrics.merge(shard->metrics);
  return out;
}

// ---------------------------------------------------------------------------
// ShardRecorder

ShardRecorder& ShardRecorder::global() {
  static ShardRecorder* instance = new ShardRecorder();
  return *instance;
}

void ShardRecorder::enable(std::string out_path) {
  const std::lock_guard<std::mutex> lock(mu_);
  enabled_ = true;
  path_ = std::move(out_path);
  experiments_.clear();
}

void ShardRecorder::disable() {
  const std::lock_guard<std::mutex> lock(mu_);
  enabled_ = false;
  path_.clear();
  experiments_.clear();
}

bool ShardRecorder::enabled() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

std::string ShardRecorder::path() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

void ShardRecorder::record(const ReplicationConfig& config,
                           const std::vector<ReplicationSample>& samples) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return;
  ShardExperiment experiment;
  experiment.label =
      config.progress_label.empty() ? "run" : config.progress_label;
  experiment.config = config;
  experiment.samples = samples;
  if (!experiments_.empty()) {
    util::require(
        experiments_.front().config.shard_index == config.shard_index &&
            experiments_.front().config.shard_count == config.shard_count,
        "ShardRecorder: experiments recorded under different shard specs "
        "cannot share one shard file");
  }
  experiments_.push_back(std::move(experiment));
}

bool ShardRecorder::write(const obs::MetricsRegistry& registry) const {
  ShardFile file;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_) return false;
    if (!experiments_.empty()) {
      file.shard_index = experiments_.front().config.shard_index;
      file.shard_count = experiments_.front().config.shard_count;
    }
    file.experiments = experiments_;
  }
  file.metrics = registry.snapshot();
  std::ofstream out(path());
  if (!out) return false;
  write_shard_json(out, file);
  out.put('\n');
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace cts::sim
