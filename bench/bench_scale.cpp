// E1 — scale study (paper §3.1 and §5.3, Miranda on BlueGene/L).
//
// Claim reproduced: "101 events on 16K processors ... the 16K processor
// run consisted of over 1.6 million data points, and the PerfDMF API was
// able to handle the data without problems."
//
// For each processor count we generate a 101-event single-metric trial,
// bulk-load it through the API, and run representative queries. The paper
// reports no absolute numbers — the shape to reproduce is: row counts grow
// to ~1.6M, load time stays near-linear in rows, and queries stay usable.
// load_rows_per_s_ratio (rows/s at the largest size over rows/s at 256
// procs) states "near-linear" as one machine-independent number. The
// largest trial is also uploaded into a durable archive, which is then
// closed (checkpoint) and reopened (snapshot load).
//
// Usage: bench_scale [--quick]   (--quick stops at 4K processors)
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/database_session.h"
#include "bench_json.h"
#include "io/synth.h"
#include "util/file.h"
#include "util/timer.h"

using namespace perfdmf;

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  bench::BenchJson json("scale");
  std::vector<std::int32_t> sizes{256, 1024, 4096};
  if (!quick) {
    sizes.push_back(8192);
    sizes.push_back(16384);
  }

  std::printf("E1: Miranda-style scale study (101 events, 1 metric)\n");
  std::printf("%8s %12s %10s %12s %12s %12s %12s\n", "procs", "points",
              "gen(s)", "load(s)", "rows/s", "event-q(ms)", "agg-q(ms)");

  auto miranda_trial = [](std::int32_t procs) {
    io::synth::TrialSpec spec;
    spec.name = "miranda." + std::to_string(procs) + "p";
    spec.nodes = procs;
    spec.event_count = 101;
    spec.imbalance = 0.08;
    return io::synth::generate_trial(spec);
  };
  double first_rows_per_s = 0.0;
  double last_rows_per_s = 0.0;
  for (std::int32_t procs : sizes) {
    util::WallTimer timer;
    auto trial = miranda_trial(procs);
    const double generate_seconds = timer.seconds();
    const std::size_t points = trial.interval_point_count();

    api::DatabaseSession session;  // fresh in-memory archive per size
    timer.reset();
    const std::int64_t trial_id = session.save_trial(trial, "miranda", "bgl");
    const double load_seconds = timer.seconds();

    // Query 1: event list for the trial (ParaProf's first request).
    timer.reset();
    auto events = session.get_interval_events();
    const double event_query_ms = timer.millis();

    // Query 2: SQL aggregate across all threads of the hottest event.
    timer.reset();
    auto aggregate = session.api().aggregate_interval_column(
        trial_id, events.front().id, "exclusive");
    const double aggregate_ms = timer.millis();

    const double rows_per_s = static_cast<double>(points) / load_seconds;
    std::printf("%8d %12zu %10.2f %12.2f %12.0f %12.2f %12.2f\n", procs, points,
                generate_seconds, load_seconds, rows_per_s, event_query_ms,
                aggregate_ms);
    (void)aggregate;

    const std::string prefix = "p" + std::to_string(procs) + "_";
    json.set(prefix + "load_s", load_seconds);
    json.set(prefix + "load_rows_per_s", rows_per_s);
    json.set(prefix + "aggregate_ms", aggregate_ms);
    if (procs == sizes.front()) first_rows_per_s = rows_per_s;
    last_rows_per_s = rows_per_s;
  }
  const double ratio = last_rows_per_s / first_rows_per_s;
  std::printf("\nrows/s at %d procs over rows/s at %d procs: %.2f\n",
              sizes.back(), sizes.front(), ratio);
  json.set("load_rows_per_s_ratio", ratio);

  // The largest trial once more, into a durable archive: upload (WAL),
  // close (checkpoint) and reopen (snapshot load).
  double durable_upload_s = 0.0;
  double durable_close_s = 0.0;
  double durable_reopen_s = 0.0;
  {
    const auto trial = miranda_trial(sizes.back());
    util::ScopedTempDir dir("perfdmf-scale");
    auto durable = std::make_unique<api::DatabaseSession>(dir.path());
    util::WallTimer timer;
    durable->save_trial(trial, "miranda", "bgl");
    durable_upload_s = timer.seconds();
    timer.reset();
    durable.reset();
    durable_close_s = timer.seconds();
    timer.reset();
    durable = std::make_unique<api::DatabaseSession>(dir.path());
    durable_reopen_s = timer.seconds();
  }
  std::printf("durable archive at %d procs: upload %.2f s, close %.2f s,"
              " reopen %.2f s\n",
              sizes.back(), durable_upload_s, durable_close_s, durable_reopen_s);
  json.set("durable_upload_ms", durable_upload_s * 1e3);
  json.set("durable_close_ms", durable_close_s * 1e3);
  json.set("durable_reopen_ms", durable_reopen_s * 1e3);
  std::printf("\npaper claim: 16384 procs x 101 events = ~1.65M points handled"
              " without problems\n");

  // ---- E1b: many experiments in one archive ---------------------------
  // Paper objective: "Handle large-scale profile data and large numbers
  // of experiments." One archive accumulates T trials; listing and
  // cross-trial queries must stay fast as the archive grows.
  std::printf("\nE1b: archive growth (trials of 16 events x 64 procs)\n");
  std::printf("%8s %12s %12s %14s %16s\n", "trials", "rows", "store(s)",
              "list-all(ms)", "one-trial-q(ms)");
  api::DatabaseSession archive;
  std::size_t total_rows = 0;
  std::int64_t probe_trial = -1;
  util::WallTimer store_timer;
  double store_seconds = 0.0;
  for (int batch : {10, 40, 50}) {  // cumulative: 10, 50, 100
    store_timer.reset();
    for (int i = 0; i < batch; ++i) {
      io::synth::TrialSpec spec;
      spec.nodes = 64;
      spec.event_count = 16;
      spec.seed = static_cast<std::uint64_t>(total_rows + i);
      spec.name = "trial_" + std::to_string(total_rows + i);
      const std::int64_t id =
          archive.save_trial(io::synth::generate_trial(spec), "suite",
                             "experiment_" + std::to_string(i % 4));
      if (probe_trial < 0) probe_trial = id;
      total_rows += 16 * 64;
    }
    store_seconds += store_timer.seconds();

    util::WallTimer timer;
    archive.clear_application();
    archive.clear_experiment();
    const std::size_t n_trials = archive.get_trial_list().size();
    const double list_ms = timer.millis();

    timer.reset();
    auto events = archive.api().get_interval_events(probe_trial);
    auto aggregate = archive.api().aggregate_interval_column(
        probe_trial, events.front().id, "exclusive");
    const double query_ms = timer.millis();
    (void)aggregate;

    std::printf("%8zu %12zu %12.2f %14.2f %16.2f\n", n_trials, total_rows,
                store_seconds, list_ms, query_ms);

    const std::string prefix = "archive" + std::to_string(n_trials) + "_";
    json.set(prefix + "list_ms", list_ms);
    json.set(prefix + "one_trial_query_ms", query_ms);
  }
  std::printf("\npaper objective: queries against one trial stay flat as the"
              " archive accumulates experiments\n");
  json.write();
  return 0;
}
