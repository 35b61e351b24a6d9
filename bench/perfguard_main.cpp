// perfguard CLI: the continuous perf-regression gate over BENCH_*.json.
//
//   perfguard [--baseline-dir DIR] [--db DIR] [--record-baseline]
//             BENCH_workload.json [BENCH_query.json ...]
//     --baseline-dir DIR   committed baselines (default bench/baselines):
//                          the runs in DIR/<machine class>/ and the gate
//                          rules in DIR/gated.txt
//     --db DIR             file-backed PerfDMF archive the runs are stored
//                          in, accumulating across invocations (default:
//                          in-memory); browse it with perfdmf_cli DIR ls
//     --record-baseline    copy the given runs into DIR/<machine class>/,
//                          keeping the newest 5 of each bench, and exit 0
//
// Each run is compared against the median of the newest 5 earlier runs of
// its bench on its machine class (src/perfguard/perfguard.h); a class
// without baseline runs is reported UNGATED and compared against nothing.
// Exit status: 0 clean (or ungated, or baseline recorded), 1 when a gated
// metric regressed past 50% or went missing, 2 on usage or I/O errors.
// scripts/check.sh wires this in as the perfguard stage.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "perfguard/perfguard.h"
#include "util/error.h"
#include "util/file.h"

using namespace perfdmf;
namespace fs = std::filesystem;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfguard [--baseline-dir DIR] [--db DIR]"
               " [--record-baseline] BENCH_*.json...\n");
  return 2;
}

/// The BENCH_*.json files in `dir` whose name starts with `prefix`,
/// sorted: a bench's recorded runs oldest first, since their names end in
/// the run's timestamp.
std::vector<fs::path> bench_files(const fs::path& dir, const std::string& prefix) {
  std::vector<fs::path> files;
  for (const fs::path& file : util::list_files(dir)) {
    const std::string name = file.filename().string();
    if (name.rfind(prefix, 0) == 0 && file.extension() == ".json") {
      files.push_back(file);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void record_baseline(const fs::path& baseline_dir, const fs::path& file,
                     const perfguard::BenchRun& run) {
  if (run.machine_class.empty()) {
    throw InvalidArgument(file.string() +
                          ": names no machine class; re-run the bench to record it");
  }
  const fs::path dir = baseline_dir / run.machine_class;
  fs::create_directories(dir);
  std::string stamp;
  for (char c : run.timestamp) {
    if (std::isalnum(static_cast<unsigned char>(c))) stamp += c;
  }
  const fs::path dest = dir / ("BENCH_" + run.bench + "." + stamp + ".json");
  util::write_file_atomic(dest, util::read_file(file), /*sync=*/false);
  const std::vector<fs::path> kept = bench_files(dir, "BENCH_" + run.bench + ".");
  const std::size_t excess =
      kept.size() > perfguard::kBaselineRuns ? kept.size() - perfguard::kBaselineRuns : 0;
  for (std::size_t i = 0; i < excess; ++i) fs::remove(kept[i]);
  std::printf("perfguard: recorded baseline %s (%zu metrics, git %s)\n",
              dest.string().c_str(), run.metrics.size(), run.git_sha.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  fs::path baseline_dir = "bench/baselines";
  fs::path db_dir;
  bool record = false;
  std::vector<fs::path> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--baseline-dir" || arg == "--db") && i + 1 < argc) {
      (arg == "--db" ? db_dir : baseline_dir) = argv[++i];
    } else if (arg == "--record-baseline") {
      record = true;
    } else if (arg.empty() || arg[0] == '-') {
      return usage();
    } else {
      files.emplace_back(arg);
    }
  }
  if (files.empty()) return usage();

  try {
    std::vector<perfguard::BenchRun> runs;
    for (const fs::path& file : files) runs.push_back(perfguard::load_bench_file(file));
    if (record) {
      for (std::size_t i = 0; i < runs.size(); ++i) {
        record_baseline(baseline_dir, files[i], runs[i]);
      }
      return 0;
    }

    auto db = db_dir.empty() ? perfguard::PerfDb() : perfguard::PerfDb(db_dir);
    // The committed runs of every class this invocation measured.
    std::set<std::string> classes;
    for (const auto& run : runs) {
      const fs::path dir = baseline_dir / run.machine_class;
      if (run.machine_class.empty() || !classes.insert(run.machine_class).second ||
          !fs::is_directory(dir)) {
        continue;
      }
      for (const fs::path& file : bench_files(dir, "BENCH_")) {
        const perfguard::BenchRun baseline = perfguard::load_bench_file(file);
        if (!baseline.machine_class.empty()) db.store(baseline);
      }
    }

    std::vector<perfguard::GateRule> gates;
    const fs::path gated_file = baseline_dir / "gated.txt";
    if (fs::exists(gated_file)) {
      gates = perfguard::parse_gate_rules(util::read_file(gated_file));
    } else {
      std::fprintf(stderr,
                   "perfguard: no gate file at %s — every metric is advisory\n",
                   gated_file.string().c_str());
    }
    perfguard::Report report;
    for (const auto& run : runs) db.check(run, gates, report);
    std::fputs(perfguard::format_report(report).c_str(), stdout);
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfguard: %s\n", e.what());
    return 2;
  }
}
