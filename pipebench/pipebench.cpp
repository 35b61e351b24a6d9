// Pipeline benchmark: files -> six format parsers -> DatabaseSession ->
// durable sqldb archive -> close / reopen / WAL recovery -> selective
// queries, browsing, trial loads and AnalysisServer requests.
//
// Every layer is timed from outside, around the public call the client
// makes (io::load_profile, DatabaseSession::save_trial, DatabaseAPI
// queries and loads, session open/close, Connection::execute, the
// analysis:: kernels, AnalysisServer). Engine counters come from the
// PERFDMF_METRICS system table. Nothing here reaches into the engine.
//
// Steadiness rules (see METRICS.md for the measurements behind them):
//   * every read phase runs in a freshly reopened session, because the
//     latency level of a session is set when its archive is reloaded
//     and varies more between sessions than samples do inside one;
//   * latencies are reported as the median over cycles of each cycle's
//     p90, which stays put while the host's speed shifts under it;
//   * import, reopen and recovery repeat every cycle and are reported
//     as medians, never as one sample.
//
// Usage: pipebench --workload miranda|archive|explore --seed N
//                  --seconds S --trace 0|1 --workdir DIR
//                  [--trace-out FILE] [--scale full|tiny]
// The last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/correlation.h"
#include "analysis/hierarchical.h"
#include "analysis/imbalance.h"
#include "analysis/kmeans.h"
#include "analysis/pca.h"
#include "analysis/speedup.h"
#include "analysis/stats.h"
#include "api/database_session.h"
#include "explorer/analysis_server.h"
#include "io/detect.h"
#include "io/synth.h"
#include "util/rng.h"

namespace pb {

namespace fs = std::filesystem;
using namespace perfdmf;
using Clock = std::chrono::steady_clock;
using explorer::AnalysisKind;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------- tracing

/// Benchmark-side spans around every layer call (single client thread).
/// Spans are kept in memory and written as Chrome trace-event JSON at
/// the end, in the format of telemetry::traces_to_chrome_json.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::string layer;
    Clock::time_point start;
    Clock::time_point end;
    int id = 0;
    int parent = 0;  // 0 = root
  };

  void enable() { enabled_ = true; }

  int begin(std::string name, std::string layer) {
    if (!enabled_) return 0;
    Record r;
    r.name = std::move(name);
    r.layer = std::move(layer);
    r.id = static_cast<int>(records_.size()) + 1;
    r.parent = stack_.empty() ? 0 : stack_.back();
    r.start = Clock::now();
    records_.push_back(std::move(r));
    stack_.push_back(records_.back().id);
    return records_.back().id;
  }
  void end(int id) {
    if (id == 0) return;
    records_[static_cast<std::size_t>(id) - 1].end = Clock::now();
    stack_.pop_back();
  }
  /// A finished span that did not run on the client thread's stack
  /// (overlapping AnalysisServer requests); parented to the current span.
  void add(std::string name, std::string layer, Clock::time_point start,
           Clock::time_point end) {
    if (!enabled_) return;
    Record r{std::move(name), std::move(layer), start, end,
             static_cast<int>(records_.size()) + 1,
             stack_.empty() ? 0 : stack_.back()};
    records_.push_back(std::move(r));
  }

  const std::vector<Record>& records() const { return records_; }

  /// Per-layer self time of the spans from index `first` on: span
  /// duration minus the part of it that its child spans cover (the
  /// union, since async children may overlap).
  std::map<std::string, double> self_seconds(std::size_t first = 0) const {
    std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
        children(records_.size() + 1);
    for (std::size_t i = first; i < records_.size(); ++i) {
      const Record& r = records_[i];
      children[static_cast<std::size_t>(r.parent)].emplace_back(r.start, r.end);
    }
    std::map<std::string, double> out;
    for (std::size_t i = first; i < records_.size(); ++i) {
      const Record& r = records_[i];
      auto& spans = children[static_cast<std::size_t>(r.id)];
      std::sort(spans.begin(), spans.end());
      double covered = 0.0;
      Clock::time_point reach = r.start;
      for (const auto& [a, b] : spans) {
        const auto from = std::max(a, reach);
        if (b > from) {
          covered += std::chrono::duration<double>(b - from).count();
          reach = b;
        }
      }
      out[r.layer] += duration(r) - covered;
    }
    return out;
  }

  std::string chrome_json() const {
    const Clock::time_point epoch =
        records_.empty() ? Clock::now() : records_.front().start;
    auto us = [&](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch)
          .count();
    };
    std::string out = "{\"traceEvents\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      if (i > 0) out += ',';
      out += "{\"name\":\"" + r.name + "\",\"cat\":\"" + r.layer +
             "\",\"ph\":\"X\",\"ts\":" + std::to_string(us(r.start)) +
             ",\"dur\":" + std::to_string(us(r.end) - us(r.start)) +
             ",\"pid\":1,\"tid\":1,\"args\":{\"span_id\":" +
             std::to_string(r.id) +
             ",\"parent_id\":" + std::to_string(r.parent) + "}}";
    }
    out += "],\"displayTimeUnit\":\"ms\"}";
    return out;
  }

 private:
  static double duration(const Record& r) {
    return std::chrono::duration<double>(r.end - r.start).count();
  }

  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Tracer& tracer, std::string name, std::string layer)
      : tracer_(tracer), id_(tracer.begin(std::move(name), std::move(layer))) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ------------------------------------------------------------- samples

class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Start a block (one per cycle) for block_quantile().
  void new_block() { block_starts_.push_back(values_.size()); }
  /// Median over blocks of each block's q-quantile: unlike the pooled
  /// quantile, it does not move when a minority of the run's cycles is
  /// disturbed by something outside the program.
  double block_quantile(double q) const {
    Samples per_block;
    for (std::size_t b = 0; b < block_starts_.size(); ++b) {
      const std::size_t end =
          b + 1 < block_starts_.size() ? block_starts_[b + 1] : values_.size();
      Samples block;
      block.values_.assign(values_.begin() + static_cast<std::ptrdiff_t>(block_starts_[b]),
                           values_.begin() + static_cast<std::ptrdiff_t>(end));
      if (!block.empty()) per_block.add(block.quantile(q));
    }
    return per_block.median();
  }
  /// Linearly interpolated quantile; q in [0, 1].
  double quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - std::floor(rank));
  }
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
  std::vector<std::size_t> block_starts_;
};

// ------------------------------------------------------------- inputs

/// What a parsed trial must look like wherever it is read back.
struct Expected {
  std::size_t points = 0;
  double inclusive_sum = 0.0;
  double exclusive_sum = 0.0;
  std::map<std::int32_t, std::size_t> points_per_node;
  std::map<std::string, std::size_t> points_per_event;
  std::size_t threads = 0;
  std::size_t metrics = 0;
};

Expected expected_of(const profile::TrialData& trial) {
  Expected e;
  e.threads = trial.threads().size();
  e.metrics = trial.metrics().size();
  trial.for_each_interval([&](std::size_t event, std::size_t thread,
                              std::size_t, const profile::IntervalDataPoint& p) {
    ++e.points;
    e.inclusive_sum += p.inclusive;
    e.exclusive_sum += p.exclusive;
    ++e.points_per_node[trial.threads()[thread].node];
    ++e.points_per_event[trial.events()[event].name];
  });
  return e;
}

bool close_enough(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

bool matches(const Expected& want, const profile::TrialData& got) {
  const Expected have = expected_of(got);
  return have.points == want.points && have.threads == want.threads &&
         have.metrics == want.metrics &&
         close_enough(have.inclusive_sum, want.inclusive_sum) &&
         close_enough(have.exclusive_sum, want.exclusive_sum);
}

/// One profile on disk plus where it is filed in the archive.
struct Input {
  fs::path path;
  io::ProfileFormat format = io::ProfileFormat::kTau;
  std::string application;
  std::string experiment;
  /// Trial metadata stored through the flexible schema (ALTERs new
  /// TRIAL columns the first time a key is seen).
  profile::Metadata fields;
  /// Planted cluster per node (sPPM-style trial), empty otherwise.
  std::vector<std::size_t> planted;
  /// Member of the strong-scaling family (speedup analysis input).
  bool scaling = false;
};

/// Adjusted Rand index of a k-means response against the planted
/// clusters. `node_order` is the loaded trial's thread order (one thread
/// per node), which is the row order of the response's assignment.
double planted_ari(const std::vector<std::int32_t>& node_order, const Input& in,
                   const std::string& content) {
  const auto at = content.find("assignment:");
  if (at == std::string::npos) return 0.0;
  std::istringstream stream(content.substr(at + 11));
  std::vector<std::size_t> got;
  for (std::size_t a; stream >> a;) got.push_back(a);
  if (got.size() != node_order.size()) return 0.0;
  std::vector<std::size_t> truth;
  for (std::int32_t node : node_order) {
    truth.push_back(in.planted.at(static_cast<std::size_t>(node)));
  }
  return analysis::adjusted_rand_index(got, truth);
}

struct Scale {
  bool tiny = false;
  std::int32_t pick(std::int32_t full, std::int32_t small) const {
    return tiny ? small : full;
  }
};

std::vector<Input> make_miranda_inputs(const fs::path& dir, std::uint64_t seed,
                                       Scale scale) {
  io::synth::TrialSpec spec;
  spec.name = "miranda";
  spec.nodes = scale.pick(64, 8);
  spec.event_count = static_cast<std::size_t>(scale.pick(101, 12));
  spec.imbalance = 0.10;
  spec.seed = seed;
  Input in;
  in.path = dir / "miranda";
  in.application = "miranda";
  in.experiment = "bgl";
  io::synth::write_as_tau(io::synth::generate_trial(spec), in.path);
  return {in};
}

std::vector<Input> make_archive_inputs(const fs::path& dir, std::uint64_t seed,
                                       Scale scale) {
  // Three trials per format, filed under three applications with two
  // experiments each; every trial carries metadata, and each format
  // adds keys of its own so the TRIAL table keeps growing columns.
  static const char* kApps[] = {"sweep3d", "smg2000", "sphot"};
  std::vector<Input> out;
  const int per_format = scale.pick(3, 1);
  const std::int32_t ranks = scale.pick(32, 4);
  const auto events = static_cast<std::size_t>(scale.pick(24, 6));
  int n = 0;
  auto next = [&](io::ProfileFormat format, const std::string& name) {
    Input in;
    in.format = format;
    in.path = dir / (name + "_" + std::to_string(n));
    in.application = kApps[n % 3];
    in.experiment = std::string("exp") + std::to_string((n / 3) % 2);
    in.fields["compiler"] = "xlc-" + std::to_string(n % 4);
    in.fields[std::string("tool_") + io::format_name(format)] = name;
    ++n;
    return in;
  };
  auto spec_for = [&](std::int32_t nodes, int i) {
    io::synth::TrialSpec spec;
    spec.nodes = nodes;
    spec.event_count = events;
    spec.seed = seed * 101 + static_cast<std::uint64_t>(n) + static_cast<std::uint64_t>(i);
    return spec;
  };
  for (int i = 0; i < per_format; ++i) {
    Input tau = next(io::ProfileFormat::kTau, "tau");
    io::synth::write_as_tau(io::synth::generate_trial(spec_for(ranks, i)), tau.path);
    out.push_back(tau);

    Input gprof = next(io::ProfileFormat::kGprof, "gprof");
    gprof.path += ".txt";
    io::synth::write_as_gprof(io::synth::generate_trial(spec_for(1, i)), gprof.path);
    out.push_back(gprof);

    Input mpip = next(io::ProfileFormat::kMpiP, "mpip");
    mpip.path += ".mpiP";
    io::synth::write_as_mpip(
        io::synth::generate_mpip_style_trial(spec_for(ranks, i)), mpip.path);
    out.push_back(mpip);

    // Dynaprof, HPMToolkit and psrun write one file per process; each
    // single-process file is a trial of its own.
    Input dyn = next(io::ProfileFormat::kDynaprof, "dynaprof");
    io::synth::write_as_dynaprof(io::synth::generate_trial(spec_for(1, i)), dyn.path);
    dyn.path = dyn.path / "dynaprof.0.0.txt";
    out.push_back(dyn);

    Input hpm = next(io::ProfileFormat::kHpm, "hpm");
    io::synth::write_as_hpm(io::synth::generate_trial(spec_for(1, i)), hpm.path);
    hpm.path = hpm.path / "hpm_0.txt";
    out.push_back(hpm);

    Input psrun = next(io::ProfileFormat::kPsrun, "psrun");
    io::synth::TrialSpec counting = spec_for(1, i);
    counting.extra_metrics = {"PAPI_TOT_CYC", "PAPI_FP_OPS", "PAPI_L1_DCM"};
    io::synth::write_as_psrun(io::synth::generate_psrun_style_trial(counting),
                              psrun.path);
    psrun.path = psrun.path / "psrun.0.xml";
    out.push_back(psrun);
  }
  return out;
}

std::vector<Input> make_explore_inputs(const fs::path& dir, std::uint64_t seed,
                                       Scale scale) {
  std::vector<Input> out;
  io::synth::ClusterSpec cluster;
  cluster.threads = scale.pick(64, 12);
  cluster.event_count = static_cast<std::size_t>(scale.pick(16, 4));
  cluster.metric_count = static_cast<std::size_t>(scale.pick(4, 3));
  cluster.cluster_count = 3;
  cluster.seed = seed;
  auto planted = io::synth::generate_clustered_trial(cluster);
  Input sppm;
  sppm.path = dir / "sppm";
  sppm.application = "sppm";
  sppm.experiment = "frost";
  sppm.planted = planted.ground_truth;  // indexed by node (one thread each)
  io::synth::write_as_tau(planted.trial, sppm.path);
  out.push_back(sppm);

  io::synth::ScalingSpec scaling;
  scaling.routine_count = static_cast<std::size_t>(scale.pick(12, 4));
  scaling.seed = seed + 7;
  for (std::int32_t p = 1; p <= scale.pick(64, 4); p *= 2) {
    Input in;
    in.path = dir / ("evh1_p" + std::to_string(p));
    in.application = "evh1";
    in.experiment = "strong";
    in.scaling = true;
    io::synth::write_as_tau(io::synth::generate_scaling_trial(scaling, p), in.path);
    out.push_back(in);
  }
  return out;
}

// ------------------------------------------------------------- workloads

/// Per read session: how many of each client operation to issue.
struct Mix {
  int selective_queries = 0;  // node- and node/thread-selective data
  int event_aggregates = 0;   // per-event SQL aggregate summaries
  int browse_rounds = 0;      // one full application/experiment/trial walk
  int trial_loads = 0;        // full trial loads
  int analysis_rounds = 0;    // rounds over `kinds`
  std::vector<AnalysisKind> kinds;
  /// AnalysisServer requests in flight at once: 1 runs each request
  /// with submit() on the client thread; 2 uses submit_async() on two
  /// workers. Cross-thread hand-offs and paired requests widen the
  /// latency spread, so only `explore`, which measures them, uses 2.
  std::size_t in_flight = 1;
  int speedups = 0;           // speedup analysis over the scaling family
  /// Queries, loads and requests all go to the planted (largest) trial
  /// instead of a random one, so each latency sample set is one shape.
  bool focus_planted = false;
};

struct WorkloadSpec {
  std::vector<Input> (*make_inputs)(const fs::path&, std::uint64_t, Scale) = nullptr;
  /// Walk the hierarchy after every upload, as an archive browser would.
  bool browse_after_upload = false;
  int sessions_per_cycle = 2;
  Mix mix;
};

// Read sessions are many and short: a session's query level is set when
// its archive is reloaded, so the run-to-run spread of a median falls
// with the number of sessions, not with the samples inside one. Sizes
// give each reported p90 at least ten samples beyond it (>= 100
// samples) in a 30 s run with a cycle to spare.
WorkloadSpec workload_spec(const std::string& name, Scale scale) {
  WorkloadSpec w;
  if (name == "miranda") {
    w.make_inputs = make_miranda_inputs;
    w.sessions_per_cycle = 3;
    w.mix = {.selective_queries = 70, .event_aggregates = 20, .browse_rounds = 100,
             .trial_loads = 10, .analysis_rounds = 10, .kinds = {AnalysisKind::kKMeans}};
  } else if (name == "archive") {
    w.make_inputs = make_archive_inputs;
    w.browse_after_upload = true;
    w.sessions_per_cycle = 2;
    w.mix = {.selective_queries = 60, .event_aggregates = 20, .browse_rounds = 30,
             .trial_loads = 8, .analysis_rounds = 2,
             .kinds = {AnalysisKind::kKMeans, AnalysisKind::kDescriptive,
                       AnalysisKind::kImbalance}};
  } else if (name == "explore") {
    w.make_inputs = make_explore_inputs;
    w.sessions_per_cycle = 3;
    w.mix = {.selective_queries = 60, .event_aggregates = 20, .browse_rounds = 30,
             .trial_loads = 16, .analysis_rounds = 2,
             .kinds = {AnalysisKind::kKMeans, AnalysisKind::kHierarchical,
                       AnalysisKind::kCorrelation, AnalysisKind::kPca,
                       AnalysisKind::kDescriptive, AnalysisKind::kImbalance},
             .in_flight = 2, .speedups = 2, .focus_planted = true};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (scale.tiny) {  // smoke scale: every operation still runs
    for (int* n : {&w.mix.selective_queries, &w.mix.event_aggregates,
                   &w.mix.browse_rounds, &w.mix.trial_loads}) {
      *n = std::max(1, *n / 10);
    }
    w.mix.analysis_rounds = 1;
    w.mix.speedups = std::min(w.mix.speedups, 1);
    w.sessions_per_cycle = 1;
  }
  return w;
}

// ------------------------------------------------------------- the run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  Scale scale;
  fs::path workdir;
  fs::path trace_out;
};

std::uintmax_t directory_bytes(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Engine counters, read through the PERFDMF_METRICS system table.
struct Counters {
  double statements = 0;   // sqldb.statement.total_micros count
  double wal_bytes = 0;
  double fsyncs = 0;       // sqldb.wal.fsync_micros count
  double fsync_p50_us = 0;
  double fsync_p99_us = 0;
  double plan_hits = 0;
  double plan_misses = 0;

  static Counters read(sqldb::Connection& connection) {
    Counters c;
    auto rs = connection.execute(
        "SELECT name, value, count, p50, p99 FROM PERFDMF_METRICS WHERE name IN "
        "('sqldb.statement.total_micros', 'sqldb.wal.bytes', "
        "'sqldb.wal.fsync_micros', 'sqldb.plan_cache.hits', "
        "'sqldb.plan_cache.misses')");
    while (rs.next()) {
      const std::string name = rs.get_string(1);
      if (name == "sqldb.statement.total_micros") c.statements = rs.get_double(3);
      if (name == "sqldb.wal.bytes") c.wal_bytes = rs.get_double(2);
      if (name == "sqldb.wal.fsync_micros") {
        c.fsyncs = rs.get_double(3);
        c.fsync_p50_us = rs.get_double(4);
        c.fsync_p99_us = rs.get_double(5);
      }
      if (name == "sqldb.plan_cache.hits") c.plan_hits = rs.get_double(2);
      if (name == "sqldb.plan_cache.misses") c.plan_misses = rs.get_double(2);
    }
    return c;
  }
};

/// A trial as stored in one archive and the input it was parsed from.
struct StoredTrial {
  std::int64_t id = -1;
  std::size_t input = 0;  // index into Run::inputs_
};

class Run {
 public:
  explicit Run(Options options)
      : options_(std::move(options)),
        spec_(workload_spec(options_.workload, options_.scale)) {
    if (options_.trace) tracer_.enable();
  }

  /// Generate the inputs and parse them once for the expected answers;
  /// timed into setup_s.
  void setup();
  void measure();
  /// Traced runs only: the per-layer figures that need calls of their
  /// own (parser, upload-ratio, kernel and raw-SQL probes).
  void probe_layers();
  void print_result();
  void write_trace() const;
  bool tracing() const { return options_.trace; }

 private:
  /// Count an operation; a thrown error or a wrong answer is a failure.
  template <typename Fn>
  bool op(const char* what, Fn&& fn) {
    ++attempted_;
    try {
      if (fn()) return true;
      std::fprintf(stderr, "pipebench: wrong result: %s\n", what);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pipebench: %s failed: %s\n", what, e.what());
    }
    ++failed_;
    return false;
  }

  struct Archive {
    fs::path dir;
    std::vector<StoredTrial> trials;
    std::size_t points = 0;
  };

  std::vector<Input> generate_inputs(const fs::path& dir);
  /// Parse every input and upload it into a fresh durable archive at
  /// `dir`, copy the archive before closing (the WAL-replay input), then
  /// close. Returns seconds for parse + open + upload + close.
  double import(const fs::path& dir, const fs::path& pre_close_copy,
                Archive& archive, bool browse_after_upload);
  void read_session(const Archive& archive);
  void recover(const Archive& archive, const fs::path& copy);
  void cycle();

  /// One full hierarchy walk; returns the trials found with metrics and
  /// events.
  std::size_t browse_round(api::DatabaseSession& session);
  /// Load every stored trial and check it against what was parsed.
  void verify_trials(api::DatabaseSession& session, const Archive& archive);
  std::map<std::string, std::pair<double, std::string>> layer_metrics() const;

  Options options_;
  WorkloadSpec spec_;
  Tracer tracer_;
  std::vector<Input> inputs_;
  std::vector<Expected> expected_;
  std::size_t input_points_ = 0;

  Archive last_archive_;   // probed by the traced run

  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t cycles_ = 0;
  std::size_t sessions_ = 0;
  double measured_s_ = 0.0;
  std::size_t measure_first_span_ = 0;

  // end-to-end samples
  Samples setup_s_, import_s_, reopen_s_, recover_s_, query_ms_, browse_ms_,
      load_ms_, analysis_ms_, archive_bytes_per_point_;
  struct Request {
    std::size_t trial_index;
    AnalysisKind kind;
    double ms;
  };
  std::vector<Request> requests_;
  // per-layer accumulators
  double parse_s_ = 0, upload_s_ = 0, imported_points_ = 0;
  Samples close_s_, load_points_per_s_, replay_records_per_s_;
  double statements_ = 0, wal_bytes_ = 0, fsyncs_ = 0;
  int imports_ = 0;
  double plan_cache_hit_ratio_ = 0.0;
  std::map<std::string, double> probed_;
  sqldb::Connection metrics_connection_;  // in-memory; reads PERFDMF_METRICS
};

std::vector<Input> Run::generate_inputs(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  return spec_.make_inputs(dir, options_.seed, options_.scale);
}

double Run::import(const fs::path& dir, const fs::path& pre_close_copy,
                   Archive& archive, bool browse_after_upload) {
  Span span(tracer_, "import", "bench");
  fs::remove_all(dir);
  fs::remove_all(pre_close_copy);
  archive = Archive{};
  archive.dir = dir;
  const Counters before = Counters::read(metrics_connection_);
  double elapsed = 0.0;
  std::unique_ptr<api::DatabaseSession> session;
  {
    Span s(tracer_, "DatabaseSession(open)", "sqldb");
    const auto t = Clock::now();
    session = std::make_unique<api::DatabaseSession>(dir);
    elapsed += seconds_since(t);
  }
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const Input& in = inputs_[i];
    profile::TrialData trial;
    {
      Span s(tracer_, "io::load_profile", "io");
      const auto t = Clock::now();
      trial = io::load_profile(in.path, in.format);
      const double d = seconds_since(t);
      parse_s_ += d;
      elapsed += d;
    }
    op("parse", [&] { return matches(expected_[i], trial); });
    trial.trial().fields = in.fields;
    std::int64_t id = -1;
    {
      Span s(tracer_, "DatabaseSession::save_trial", "api");
      const auto t = Clock::now();
      op("upload", [&] {
        id = session->save_trial(trial, in.application, in.experiment,
                                 /*extend_schema=*/!in.fields.empty());
        return id > 0;
      });
      const double d = seconds_since(t);
      upload_s_ += d;
      elapsed += d;
    }
    archive.trials.push_back({id, i});
    archive.points += expected_[i].points;
    // Untimed: right after DDL and uploads these rounds re-plan their
    // statements, a different population from the read-session rounds
    // that browse_* report.
    if (browse_after_upload) {
      op("browse", [&] { return browse_round(*session) == archive.trials.size(); });
    }
  }
  {
    Span s(tracer_, "copy archive (pre-close)", "bench");
    fs::copy(dir, pre_close_copy, fs::copy_options::recursive);
  }
  {
    Span s(tracer_, "DatabaseSession(close)", "sqldb");
    const auto t = Clock::now();
    session.reset();
    const double d = seconds_since(t);
    close_s_.add(d);
    elapsed += d;
  }
  const Counters after = Counters::read(metrics_connection_);
  statements_ += after.statements - before.statements;
  wal_bytes_ += after.wal_bytes - before.wal_bytes;
  fsyncs_ += after.fsyncs - before.fsyncs;
  imported_points_ += static_cast<double>(archive.points);
  ++imports_;
  archive_bytes_per_point_.add(static_cast<double>(directory_bytes(dir)) /
                               static_cast<double>(archive.points));
  return elapsed;
}

std::size_t Run::browse_round(api::DatabaseSession& session) {
  Span s(tracer_, "browse round", "api");
  // One full hierarchy walk: every application, experiment and trial,
  // with each trial's metric and event lists.
  std::size_t trials = 0;
  session.clear_application();
  session.clear_experiment();
  for (const auto& app : session.get_application_list()) {
    session.set_application(app.id);
    for (const auto& exp : session.get_experiment_list()) {
      session.set_experiment(exp.id);
      for (const auto& trial : session.get_trial_list()) {
        session.set_trial(trial.id);
        if (!session.get_metrics().empty() && !session.get_interval_events().empty()) {
          ++trials;
        }
      }
    }
  }
  session.clear_application();
  session.clear_experiment();
  return trials;
}

void Run::verify_trials(api::DatabaseSession& session, const Archive& archive) {
  for (const StoredTrial& st : archive.trials) {
    profile::TrialData loaded;
    {
      Span s(tracer_, "DatabaseAPI::load_trial", "api");
      const auto t = Clock::now();
      loaded = session.api().load_trial(st.id);
      const double d = seconds_since(t);
      load_points_per_s_.add(static_cast<double>(loaded.interval_point_count()) / d);
    }
    op("verify trial", [&] { return matches(expected_[st.input], loaded); });
  }
}

void Run::read_session(const Archive& archive) {
  Span span(tracer_, "read session", "bench");
  ++sessions_;
  std::unique_ptr<api::DatabaseSession> session;
  {
    Span s(tracer_, "DatabaseSession(open)", "sqldb");
    const auto t = Clock::now();
    op("reopen", [&] {
      session = std::make_unique<api::DatabaseSession>(archive.dir);
      return session->recovery_report().clean() &&
             session->recovery_report().replayed_records == 0;
    });
    reopen_s_.add(seconds_since(t));
  }
  if (!session) return;
  const Mix& mix = spec_.mix;
  util::Rng rng(options_.seed * 7919 + sessions_);

  // Every stored trial must read back exactly as parsed.
  verify_trials(*session, archive);

  std::optional<std::size_t> planted;
  for (std::size_t i = 0; i < archive.trials.size(); ++i) {
    if (!inputs_[archive.trials[i].input].planted.empty()) planted = i;
  }
  auto pick = [&]() -> std::size_t {
    return mix.focus_planted && planted ? *planted
                                        : rng.next_below(archive.trials.size());
  };

  // Event ids of each trial, for the per-event aggregates.
  std::vector<std::vector<profile::IntervalEvent>> events(archive.trials.size());
  for (std::size_t i = 0; i < archive.trials.size(); ++i) {
    events[i] = session->api().get_interval_events(archive.trials[i].id);
  }

  for (int q = 0; q < mix.selective_queries; ++q) {
    const std::size_t ti = pick();
    const StoredTrial& st = archive.trials[ti];
    const Expected& want = expected_[st.input];
    auto node_it = want.points_per_node.begin();
    std::advance(node_it, rng.next_below(want.points_per_node.size()));
    api::DatabaseAPI::DataFilter filter;
    filter.node = node_it->first;
    if (q % 2 == 1) {  // node/thread-selective (threads here are 0:0)
      filter.context = 0;
      filter.thread = 0;
    }
    Span s(tracer_, "DatabaseAPI::get_interval_data", "api");
    const auto t = Clock::now();
    op("selective query", [&] {
      auto rows = session->api().get_interval_data(st.id, filter);
      // Profiles here have one thread per node, so both shapes return
      // every point of the node.
      return rows.size() == node_it->second;
    });
    query_ms_.add(seconds_since(t) * 1e3);
  }
  for (int q = 0; q < mix.event_aggregates; ++q) {
    const std::size_t ti = pick();
    const StoredTrial& st = archive.trials[ti];
    const auto& trial_events = events[ti];
    if (trial_events.empty()) {
      op("event list", [] { return false; });
      continue;
    }
    const auto& ev = trial_events[rng.next_below(trial_events.size())];
    const std::size_t want = expected_[st.input].points_per_event.count(ev.name)
                                 ? expected_[st.input].points_per_event.at(ev.name)
                                 : 0;
    Span s(tracer_, "DatabaseAPI::aggregate_interval_column", "api");
    const auto t = Clock::now();
    op("event aggregate", [&] {
      auto summary =
          session->api().aggregate_interval_column(st.id, ev.id, "exclusive");
      return summary.count == want && summary.maximum >= summary.minimum;
    });
    query_ms_.add(seconds_since(t) * 1e3);
  }
  for (int b = 0; b < mix.browse_rounds; ++b) {
    const auto t = Clock::now();
    op("browse", [&] { return browse_round(*session) == archive.trials.size(); });
    browse_ms_.add(seconds_since(t) * 1e3);
  }
  for (int l = 0; l < mix.trial_loads; ++l) {
    const StoredTrial& st = archive.trials[pick()];
    Span s(tracer_, "DatabaseAPI::load_trial", "api");
    const auto t = Clock::now();
    profile::TrialData loaded = session->api().load_trial(st.id);
    const double d = seconds_since(t);
    load_ms_.add(d * 1e3);
    load_points_per_s_.add(static_cast<double>(loaded.interval_point_count()) / d);
    op("trial load", [&] {
      return loaded.interval_point_count() == expected_[st.input].points;
    });
  }

  // Thread order (by node) of each planted trial as the server loads it;
  // k-means assignments come back in this order.
  std::map<std::int64_t, std::vector<std::int32_t>> node_order;
  for (const StoredTrial& st : archive.trials) {
    if (inputs_[st.input].planted.empty()) continue;
    const profile::TrialData loaded = session->api().load_trial(st.id);
    for (const auto& thread : loaded.threads()) {
      node_order[st.id].push_back(thread.node);
    }
  }

  if (mix.analysis_rounds > 0) {
    // in_flight 1: AnalysisServer::submit on the client thread (a server
    // without workers); 2: submit_async on two workers, two in flight.
    explorer::AnalysisServer server(session->api().connection_ptr(),
                                    mix.in_flight > 1 ? 2 : 0);
    std::vector<std::pair<std::size_t, AnalysisKind>> requests;
    for (int r = 0; r < mix.analysis_rounds; ++r) {
      for (AnalysisKind kind : mix.kinds) requests.emplace_back(pick(), kind);
    }
    auto make_request = [&](std::size_t ti, AnalysisKind kind) {
      explorer::AnalysisRequest request;
      request.trial_id = archive.trials[ti].id;
      request.kind = kind;
      request.k = 3;
      return request;
    };
    auto record = [&](std::size_t ti, AnalysisKind kind, Clock::time_point start,
                      Clock::time_point done, const char* span) {
      const double ms = std::chrono::duration<double>(done - start).count() * 1e3;
      analysis_ms_.add(ms);
      requests_.push_back({ti, kind, ms});
      tracer_.add(span, "explorer", start, done);
    };
    // A stored result; on the planted sPPM trial k-means must recover the
    // clusters.
    auto correct = [&](std::size_t ti, AnalysisKind kind,
                       const explorer::AnalysisResponse& response) {
      const StoredTrial& st = archive.trials[ti];
      const Input& in = inputs_[st.input];
      if (response.result_id <= 0 || response.content.empty()) return false;
      if (kind != AnalysisKind::kKMeans || in.planted.empty()) return true;
      return planted_ari(node_order.at(st.id), in, response.content) >= 0.9;
    };
    if (mix.in_flight <= 1) {
      for (const auto& [ti, kind] : requests) {
        const auto start = Clock::now();
        op("analysis request", [&] {
          const auto response = server.submit(make_request(ti, kind));
          record(ti, kind, start, Clock::now(), "AnalysisServer::submit");
          return correct(ti, kind, response);
        });
      }
    } else {
      struct InFlight {
        std::future<explorer::AnalysisResponse> future;
        Clock::time_point start;
        std::size_t trial_index;
        AnalysisKind kind;
      };
      std::vector<InFlight> flight;
      std::size_t next = 0;
      while (next < requests.size() || !flight.empty()) {
        while (flight.size() < mix.in_flight && next < requests.size()) {
          const auto& [ti, kind] = requests[next++];
          const auto start = Clock::now();
          flight.push_back({server.submit_async(make_request(ti, kind)), start, ti, kind});
        }
        // Wait briefly on the oldest, then take whichever is ready, so
        // each latency ends when the client sees its own result stored.
        flight.front().future.wait_for(std::chrono::microseconds(500));
        for (std::size_t i = 0; i < flight.size();) {
          InFlight& f = flight[i];
          if (f.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            ++i;
            continue;
          }
          record(f.trial_index, f.kind, f.start, Clock::now(),
                 "AnalysisServer::submit_async");
          op("analysis request",
             [&] { return correct(f.trial_index, f.kind, f.future.get()); });
          flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      server.wait_idle();
    }
  }

  for (int s = 0; s < mix.speedups; ++s) {
    std::optional<std::int64_t> experiment;
    std::size_t family = 0;
    for (const StoredTrial& st : archive.trials) {
      if (!inputs_[st.input].scaling) continue;
      ++family;
      experiment = session->api().get_trial(st.id)->experiment_id;
    }
    if (!experiment) break;
    Span sp(tracer_, "analysis::compute_speedup_for_experiment", "analysis");
    op("speedup", [&] {
      auto report = analysis::compute_speedup_for_experiment(session->api(), *experiment);
      return report.base_processors == 1 && !report.routines.empty() &&
             report.application.points.size() == family;
    });
  }

  {
    Span s(tracer_, "DatabaseSession(close)", "sqldb");
    session.reset();
  }
}

void Run::recover(const Archive& archive, const fs::path& copy) {
  Span span(tracer_, "recover", "bench");
  std::unique_ptr<api::DatabaseSession> session;
  std::size_t replayed = 0;
  {
    Span s(tracer_, "DatabaseSession(open, WAL replay)", "sqldb");
    const auto t = Clock::now();
    op("recover", [&] {
      session = std::make_unique<api::DatabaseSession>(copy);
      replayed = session->recovery_report().replayed_records;
      return session->recovery_report().clean() && replayed > 0;
    });
    const double d = seconds_since(t);
    recover_s_.add(d);
    replay_records_per_s_.add(static_cast<double>(replayed) / d);
  }
  if (!session) return;
  // The recovered archive must hold exactly what the reopened one does:
  // both are checked against the parsed trials.
  verify_trials(*session, archive);
  {
    Span s(tracer_, "DatabaseSession(close)", "sqldb");
    session.reset();
  }
}

void Run::cycle() {
  Span span(tracer_, "cycle", "bench");
  ++cycles_;
  for (Samples* s : {&query_ms_, &browse_ms_, &load_ms_, &analysis_ms_}) s->new_block();
  const fs::path copy = options_.workdir / "pre-close";
  Archive archive;
  import_s_.add(import(options_.workdir / "archive", copy, archive,
                       spec_.browse_after_upload));
  for (int s = 0; s < spec_.sessions_per_cycle; ++s) read_session(archive);
  recover(archive, copy);
  last_archive_ = archive;
  // Set-up is repeated once per cycle (same seed, same inputs) so that
  // setup_s is a median over the whole run, not over its first moments.
  setup();
}

void Run::setup() {
  const auto t = Clock::now();
  inputs_ = generate_inputs(options_.workdir / "inputs");
  expected_.clear();
  input_points_ = 0;
  for (const Input& in : inputs_) {
    expected_.push_back(expected_of(io::load_profile(in.path, in.format)));
    input_points_ += expected_.back().points;
  }
  setup_s_.add(seconds_since(t));
}

void Run::measure() {
  measure_first_span_ = tracer_.records().size();
  Span span(tracer_, "measure", "bench");
  const Counters before = Counters::read(metrics_connection_);
  // Whole cycles only: another one starts while a typical cycle still
  // fits in the remaining time (the first always runs).
  const auto start = Clock::now();
  Samples cycle_s;
  do {
    const auto t = Clock::now();
    // An error that escapes a client operation ends its cycle; the next
    // cycle starts over from the inputs.
    op("cycle", [&] {
      cycle();
      return true;
    });
    cycle_s.add(seconds_since(t));
  } while (seconds_since(start) + cycle_s.median() <= options_.seconds);
  measured_s_ = seconds_since(start);
  const Counters after = Counters::read(metrics_connection_);
  const double hits = after.plan_hits - before.plan_hits;
  const double misses = after.plan_misses - before.plan_misses;
  plan_cache_hit_ratio_ = hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

// ------------------------------------------------------------- probes

/// The analysis an AnalysisServer request of `kind` runs on a loaded
/// trial, called directly (no load, no result storage).
void run_kernel(AnalysisKind kind, const profile::TrialData& trial) {
  switch (kind) {
    case AnalysisKind::kKMeans: {
      const auto f = analysis::thread_features(trial);
      analysis::KMeansOptions options;
      options.k = 3;
      analysis::kmeans(f.values, f.rows, f.cols, options);
      break;
    }
    case AnalysisKind::kHierarchical: {
      const auto f = analysis::thread_features(trial);
      analysis::hierarchical_cluster(f.values, f.rows, f.cols).cut(3);
      break;
    }
    case AnalysisKind::kCorrelation:
      analysis::strong_correlations(analysis::correlate_metrics(trial), 0.8);
      break;
    case AnalysisKind::kPca: {
      const auto f = analysis::thread_features(trial);
      analysis::pca(f.values, f.rows, f.cols, 2);
      break;
    }
    case AnalysisKind::kDescriptive:
      for (std::size_t e = 0; e < trial.events().size(); ++e) {
        std::vector<double> values;
        for (std::size_t t = 0; t < trial.threads().size(); ++t) {
          if (const auto* p = trial.interval_data(e, t, 0)) values.push_back(p->exclusive);
        }
        if (!values.empty()) analysis::describe(values);
      }
      break;
    case AnalysisKind::kImbalance: {
      const std::string metric = trial.metrics().front().name;
      analysis::compute_imbalance(trial, metric);
      analysis::find_outlier_threads(trial, metric);
      break;
    }
  }
}

/// Median wall milliseconds of `fn` over at least `min_reps` calls and
/// at least `min_seconds` of repetition.
template <typename Fn>
double median_ms(Fn&& fn, int min_reps = 5, double min_seconds = 0.1) {
  Samples ms;
  const auto start = Clock::now();
  while (static_cast<int>(ms.size()) < min_reps ||
         seconds_since(start) < min_seconds) {
    const auto t = Clock::now();
    fn();
    ms.add(seconds_since(t) * 1e3);
  }
  return ms.median();
}

void Run::probe_layers() {
  auto& m = probed_;
  const fs::path dir = options_.workdir / "probe";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // io: each of the six parsers on one small input of its format.
  {
    std::map<std::string, Samples> rate;
    for (const Input& in : make_archive_inputs(dir / "formats", options_.seed, options_.scale)) {
      std::size_t points = 0;
      const double ms = median_ms([&] {
        points = io::load_profile(in.path, in.format).interval_point_count();
      });
      rate[io::format_name(in.format)].add(static_cast<double>(points) / ms * 1e3);
    }
    for (const auto& [format, r] : rate) {
      m["io.parse_points_per_s." + format] = r.median();
    }
  }

  // api: per-point upload cost at 4x the processes, fresh in-memory
  // archives each time (linear upload reads ~1).
  {
    auto per_point_s = [&](std::int32_t nodes) {
      io::synth::TrialSpec spec;
      spec.nodes = nodes;
      spec.event_count = static_cast<std::size_t>(options_.scale.pick(101, 12));
      spec.seed = options_.seed;
      const auto trial = io::synth::generate_trial(spec);
      Samples s;
      for (int rep = 0; rep < (nodes <= 32 ? 5 : 1); ++rep) {
        api::DatabaseSession session;
        const auto t = Clock::now();
        session.save_trial(trial, "probe", "upload");
        s.add(seconds_since(t) / static_cast<double>(trial.interval_point_count()));
      }
      return s.median();
    };
    const std::int32_t small = options_.scale.pick(32, 4);
    m["api.upload_cost_ratio"] = per_point_s(small * 4) / per_point_s(small);
  }

  // analysis: each kernel called directly on in-memory trials.
  {
    io::synth::ClusterSpec cs;
    cs.threads = options_.scale.pick(64, 12);
    cs.event_count = static_cast<std::size_t>(options_.scale.pick(16, 4));
    cs.metric_count = static_cast<std::size_t>(options_.scale.pick(4, 3));
    cs.seed = options_.seed;
    const auto clustered = io::synth::generate_clustered_trial(cs);
    const auto features = analysis::thread_features(clustered.trial);
    analysis::KMeansOptions ko;
    ko.k = 3;
    m["analysis.kmeans_ms"] = median_ms([&] {
      analysis::kmeans(features.values, features.rows, features.cols, ko);
    });
    m["analysis.hierarchical_ms"] = median_ms([&] {
      analysis::hierarchical_cluster(features.values, features.rows, features.cols).cut(3);
    });
    m["analysis.pca_ms"] = median_ms([&] {
      analysis::pca(features.values, features.rows, features.cols, 2);
    });
    m["analysis.correlation_ms"] = median_ms([&] {
      analysis::strong_correlations(analysis::correlate_metrics(clustered.trial), 0.8);
    });
    m["analysis.imbalance_ms"] = median_ms([&] {
      analysis::compute_imbalance(clustered.trial, "TIME");
      analysis::find_outlier_threads(clustered.trial, "TIME");
    });
    io::synth::ScalingSpec ss;
    ss.seed = options_.seed;
    std::vector<profile::TrialData> family;
    for (std::int32_t p = 1; p <= options_.scale.pick(64, 4); p *= 2) {
      family.push_back(io::synth::generate_scaling_trial(ss, p));
    }
    std::vector<std::pair<std::int64_t, const profile::TrialData*>> runs;
    for (const auto& t : family) {
      runs.emplace_back(static_cast<std::int64_t>(t.threads().size()), &t);
    }
    m["analysis.speedup_ms"] = median_ms([&] { analysis::compute_speedup(runs); });
  }

  // sqldb and explorer, on the workload's own (closed) archive.
  api::DatabaseSession session(last_archive_.dir);
  sqldb::Connection& c = session.api().connection();
  const StoredTrial& st = last_archive_.trials.front();
  const Expected& want = expected_[st.input];
  const std::int32_t node = want.points_per_node.begin()->first;
  const std::string node_sql =
      "SELECT e.id, p.inclusive, p.exclusive FROM interval_event e JOIN "
      "interval_location_profile p ON p.interval_event = e.id WHERE e.trial = " +
      std::to_string(st.id) + " AND p.node = " + std::to_string(node);
  {
    auto rs = c.execute(node_sql);
    op("raw node query", [&] { return rs.row_count() == want.points_per_node.at(node); });
    // EXPLAIN ANALYZE: the widest operator input per row returned (the
    // join streams every profile row of the trial into the node filter
    // unless an index narrows it first).
    auto plan = c.execute("EXPLAIN ANALYZE " + node_sql);
    double widest = 0.0;
    while (plan.next()) {
      const std::string line = plan.get_string(1);
      const auto at = line.find("rows_in=");
      if (line.starts_with("analyze ") && at != std::string::npos) {
        widest = std::max(widest, std::stod(line.substr(at + 8)));
      }
    }
    m["sqldb.rows_examined_per_row"] = widest / static_cast<double>(rs.row_count());
  }
  const auto events = session.api().get_interval_events(st.id);
  m["sqldb.select_p50_ms.node"] = median_ms([&] { c.execute(node_sql); }, 20);
  m["sqldb.select_p50_ms.event_agg"] = median_ms([&] {
    c.execute("SELECT COUNT(*), AVG(exclusive), MAX(exclusive) FROM "
              "interval_location_profile WHERE interval_event = ?",
              {sqldb::Value(events.front().id)});
  }, 20);
  m["sqldb.select_p50_ms.group_by"] = median_ms([&] {
    c.execute("SELECT p.interval_event, AVG(p.exclusive) FROM interval_event e "
              "JOIN interval_location_profile p ON p.interval_event = e.id "
              "WHERE e.trial = ? GROUP BY p.interval_event",
              {sqldb::Value(st.id)});
  }, 20);

  // explorer: request latency minus the load and kernel time of the
  // same kind on the same trial, measured separately here.
  std::map<std::pair<std::size_t, AnalysisKind>, double> direct_ms;
  for (const Request& r : requests_) {
    const auto key = std::make_pair(r.trial_index, r.kind);
    if (direct_ms.count(key)) continue;
    const std::int64_t id = last_archive_.trials[r.trial_index].id;
    profile::TrialData trial;
    const double load = median_ms([&] { trial = session.api().load_trial(id); }, 5, 0.02);
    direct_ms[key] = load + median_ms([&] { run_kernel(r.kind, trial); }, 5, 0.02);
  }
  Samples overhead;
  for (const Request& r : requests_) {
    overhead.add(r.ms - direct_ms.at({r.trial_index, r.kind}));
  }
  m["explorer.request_overhead_ms"] = overhead.median();
}

// ------------------------------------------------------------- output

std::map<std::string, std::pair<double, std::string>> Run::layer_metrics() const {
  std::map<std::string, std::pair<double, std::string>> m;
  for (const auto& [name, value] : probed_) {
    std::string unit = "1/s";
    if (name.find("_ms") != std::string::npos) unit = "ms";
    if (name == "api.upload_cost_ratio" || name == "sqldb.rows_examined_per_row") {
      unit = "ratio";
    }
    m[name] = {value, unit};
  }
  m["io.parse_points_per_s"] = {imported_points_ / parse_s_, "1/s"};
  m["api.upload_points_per_s"] = {imported_points_ / upload_s_, "1/s"};
  m["api.load_points_per_s"] = {load_points_per_s_.median(), "1/s"};
  m["sqldb.statements_per_point"] = {statements_ / imported_points_, "count"};
  m["sqldb.wal_bytes_per_point"] = {wal_bytes_ / imported_points_, "B"};
  m["sqldb.wal_fsyncs"] = {fsyncs_ / imports_, "count"};
  m["sqldb.close_s"] = {close_s_.median(), "s"};
  m["sqldb.replay_records_per_s"] = {replay_records_per_s_.median(), "1/s"};
  m["sqldb.plan_cache_hit_ratio"] = {plan_cache_hit_ratio_, "ratio"};

  // Self time per layer and cycle in the measured phase. Layers whose
  // spans every workload's cycle contains; io and analysis self time is
  // in the printed table.
  const auto self = tracer_.self_seconds(measure_first_span_);
  for (const char* layer : {"api", "sqldb", "explorer"}) {
    const auto it = self.find(layer);
    m[std::string(layer) + ".self_ms_per_cycle"] = {
        it == self.end() ? 0.0 : 1e3 * it->second / static_cast<double>(cycles_), "ms"};
  }

  // Tracing overhead: the cost of recording one span, timed here, times
  // the spans the measured phase recorded, as a share of its wall time.
  Tracer timing;
  timing.enable();
  const int n = 20000;
  const auto t = Clock::now();
  for (int i = 0; i < n; ++i) {
    Span span(timing, "overhead", "telemetry");
  }
  const double per_span = seconds_since(t) / n;
  const auto spans = static_cast<double>(tracer_.records().size() - measure_first_span_);
  m["telemetry.trace_overhead_pct"] = {100.0 * per_span * spans / measured_s_, "%"};
  return m;
}

void Run::write_trace() const {
  if (!options_.trace || options_.trace_out.empty()) return;
  std::FILE* f = std::fopen(options_.trace_out.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + options_.trace_out.string());
  const std::string json = tracer_.chrome_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);

  std::printf("# self time per cycle by layer, measured phase (ms)\n");
  for (const auto& [layer, seconds] : tracer_.self_seconds(measure_first_span_)) {
    std::printf("#   %-10s %10.2f\n", layer.c_str(),
                1e3 * seconds / static_cast<double>(cycles_));
  }
  std::printf("# %zu spans written to %s\n", tracer_.records().size(),
              options_.trace_out.c_str());
}

void Run::print_result() {
  for (const auto& [name, s] : {std::pair{"setup_s", &setup_s_}, {"import_s", &import_s_},
                                {"reopen_s", &reopen_s_}, {"recover_s", &recover_s_}}) {
    std::printf("# %-14s n=%-6zu p50=%.6g\n", name, s->size(), s->median());
  }
  // Latencies: reported per cycle (median over cycles), with the pooled
  // percentiles alongside. p90 needs 100 samples for ten beyond it.
  for (const auto& [name, s] : {std::pair{"query_ms", &query_ms_}, {"browse_ms", &browse_ms_},
                                {"trial_load_ms", &load_ms_}, {"analysis_ms", &analysis_ms_}}) {
    std::printf("# %-14s n=%-6zu per-cycle p50=%-10.6g p90=%-10.6g pooled p50=%.6g "
                "p90=%.6g p99=%.6g%s\n",
                name, s->size(), s->block_quantile(0.5), s->block_quantile(0.9),
                s->median(), s->quantile(0.9), s->quantile(0.99),
                s->size() < 100 ? " (under 10 samples beyond p90)" : "");
  }
  std::map<std::string, Samples> by_kind;
  for (const Request& r : requests_) by_kind[explorer::analysis_kind_name(r.kind)].add(r.ms);
  for (const auto& [kind, ms] : by_kind) {
    std::printf("#   %-12s n=%-6zu p50=%.6g\n", kind.c_str(), ms.size(), ms.median());
  }
  std::printf("# cycles=%zu sessions=%zu measured_s=%.3f points=%zu\n", cycles_,
              sessions_, measured_s_, input_points_);
  const Counters c = Counters::read(metrics_connection_);
  std::printf("# wal fsyncs=%.0f p50=%.0fus p99=%.0fus\n", c.fsyncs,
              c.fsync_p50_us, c.fsync_p99_us);

  std::map<std::string, std::pair<double, std::string>> metrics;
  if (options_.trace) {
    metrics = layer_metrics();
  } else {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // pipeline_s: the blocking path files -> durable archive -> closed ->
    // reopened -> queried -> clustered, from the figures of its steps.
    const double pipeline = import_s_.median() + reopen_s_.median() +
                            (query_ms_.block_quantile(0.9) +
                             analysis_ms_.block_quantile(0.9)) / 1e3;
    metrics = {
        {"setup_s", {setup_s_.median(), "s"}},
        {"pipeline_s", {pipeline, "s"}},
        {"import_points_per_s",
         {static_cast<double>(input_points_) / import_s_.median(), "1/s"}},
        {"reopen_s", {reopen_s_.median(), "s"}},
        {"recover_s", {recover_s_.median(), "s"}},
        {"archive_bytes_per_point", {archive_bytes_per_point_.median(), "B"}},
        {"query_p90_ms", {query_ms_.block_quantile(0.9), "ms"}},
        {"browse_p90_ms", {browse_ms_.block_quantile(0.9), "ms"}},
        {"trial_load_p90_ms", {load_ms_.block_quantile(0.9), "ms"}},
        {"analysis_p90_ms", {analysis_ms_.block_quantile(0.9), "ms"}},
        {"peak_rss_mb", {static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"}},
    };
  }
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", v.first);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + v.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--workdir") {
      o.workdir = value;
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else if (key == "--scale") {
      o.scale.tiny = value == "tiny";
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.workload.empty() || o.workdir.empty()) {
    throw std::invalid_argument("--workload and --workdir are required");
  }
  return o;
}

}  // namespace pb

int main(int argc, char** argv) {
  try {
    pb::Run run(pb::parse_options(argc, argv));
    run.setup();
    run.measure();
    if (run.tracing()) run.probe_layers();
    run.write_trace();
    run.print_result();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }
}
