// Tests for the self-hosted telemetry layer: the metrics registry and
// its histogram percentiles, the slow-query trace ring, the
// PERFDMF_METRICS / PERFDMF_SLOW_QUERIES virtual tables (queried through
// plain SQL), and the log/statement-record plumbing underneath.
// Recording-dependent assertions are gated on telemetry::compiled_in() so
// the suite also passes under -DPERFDMF_TELEMETRY=OFF, where every
// recording is compiled out but the registry and system tables still
// exist.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "sqldb/connection.h"
#include "sqldb/system_tables.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/error.h"
#include "util/log.h"

using namespace perfdmf::telemetry;
using perfdmf::DbError;
using perfdmf::InvalidArgument;
using perfdmf::sqldb::Connection;

namespace {

// --------------------------------------------------------------- registry

TEST(MetricsRegistry, FindOrCreateReturnsStableReference) {
  auto& registry = MetricsRegistry::instance();
  Counter& a = registry.counter("test.registry.counter");
  Counter& b = registry.counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.histogram("test.registry.histogram");
  Histogram& h2 = registry.histogram("test.registry.histogram");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("test.registry.kind_mix");
  EXPECT_THROW(registry.gauge("test.registry.kind_mix"), InvalidArgument);
  EXPECT_THROW(registry.histogram("test.registry.kind_mix"), InvalidArgument);
}

TEST(MetricsRegistry, CounterAndGaugeRecord) {
  auto& registry = MetricsRegistry::instance();
  Counter& counter = registry.counter("test.basics.counter");
  counter.reset();
  counter.add();
  counter.add(41);
  Gauge& gauge = registry.gauge("test.basics.gauge");
  gauge.reset();
  gauge.set(10);
  gauge.add(-3);
  if (compiled_in()) {
    EXPECT_EQ(counter.value(), 42u);
    EXPECT_EQ(gauge.value(), 7);
  } else {
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(gauge.value(), 0);
  }
}

TEST(MetricsRegistry, SnapshotCarriesKindAndValue) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("test.snapshot.counter").add(5);
  const auto samples = registry.snapshot();
  const auto it = std::find_if(samples.begin(), samples.end(), [](const auto& s) {
    return s.name == "test.snapshot.counter";
  });
  ASSERT_NE(it, samples.end());
  EXPECT_EQ(it->kind, MetricSample::Kind::kCounter);
  EXPECT_DOUBLE_EQ(it->value, compiled_in() ? 5.0 : 0.0);
  // Histogram-only fields stay negative (-> SQL NULL) for counters.
  EXPECT_LT(it->count, 0);
  EXPECT_LT(it->p50, 0.0);
}

// -------------------------------------------------------------- histogram

TEST(Histogram, BucketBoundsAreConsistent) {
  // Every sample lands in a bucket whose upper bound is >= the sample and
  // whose predecessor's upper bound is < the sample.
  for (std::uint64_t sample :
       {0ull, 1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 8ull, 15ull, 100ull,
        1023ull, 1024ull, 4095ull, 1000000ull, 123456789ull}) {
    const std::size_t bucket = Histogram::bucket_of(sample);
    ASSERT_LT(bucket, Histogram::kBucketCount);
    EXPECT_GE(Histogram::bucket_upper_bound(bucket), sample)
        << "sample " << sample;
    if (bucket > 0) {
      EXPECT_LT(Histogram::bucket_upper_bound(bucket - 1), sample)
          << "sample " << sample;
    }
  }
  // Bucket index is monotone in the sample.
  std::size_t last = 0;
  for (std::uint64_t s = 0; s < 10000; ++s) {
    const std::size_t b = Histogram::bucket_of(s);
    EXPECT_GE(b, last);
    last = b;
  }
}

TEST(Histogram, PercentilesTrackExactQuantiles) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  Histogram h;
  // Uniform 1..1000: exact quantiles are q*1000.
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  const struct {
    double q;
    double exact;
  } cases[] = {{0.50, 500.0}, {0.95, 950.0}, {0.99, 990.0}};
  for (const auto& c : cases) {
    const double estimate = h.percentile(c.q);
    // Geometric buckets with 4 subdivisions per power of two bound the
    // relative error of the bucket upper bound at ~25%.
    EXPECT_GE(estimate, c.exact * 0.99) << "q=" << c.q;
    EXPECT_LE(estimate, c.exact * 1.25 + 1.0) << "q=" << c.q;
  }
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

// -------------------------------------------------------------- TraceRing

TEST(TraceRing, WraparoundKeepsNewestInOrder) {
  auto& ring = TraceRing::instance();
  ring.clear();
  ring.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    QueryTrace trace;
    trace.sql = "q" + std::to_string(i);
    ring.push(std::move(trace));
  }
  EXPECT_EQ(ring.size(), 4u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().sql, "q6");
  EXPECT_EQ(snap.back().sql, "q9");
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].id, snap[i].id);  // ids stay monotonic
  }
  // Shrinking drops the oldest retained traces.
  ring.set_capacity(2);
  const auto shrunk = ring.snapshot();
  ASSERT_EQ(shrunk.size(), 2u);
  EXPECT_EQ(shrunk.front().sql, "q8");
  ring.set_capacity(TraceRing::kDefaultCapacity);
  ring.clear();
}

// ---------------------------------------------------------- system tables

class SystemTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    conn.execute_update(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER, y REAL)");
    auto stmt = conn.prepare("INSERT INTO t (x, y) VALUES (?, ?)");
    conn.begin();
    for (int i = 0; i < 100; ++i) {
      stmt.set_int(1, i % 7);
      stmt.set_double(2, i * 0.5);
      stmt.execute_update();
    }
    conn.commit();
  }

  Connection conn;
};

TEST_F(SystemTableTest, MetricsTableServesLiveCounters) {
  auto rs = conn.execute(
      "SELECT name, value FROM PERFDMF_METRICS WHERE name LIKE 'sqldb.%'");
  // Hot-path metrics register on first use whether or not recording is
  // compiled in, so the name set is non-empty in both builds.
  EXPECT_GT(rs.row_count(), 0u);

  auto commits = conn.execute(
      "SELECT value FROM PERFDMF_METRICS WHERE name = 'sqldb.txn.commits'");
  ASSERT_EQ(commits.row_count(), 1u);
  commits.next();
  if (compiled_in()) {
    EXPECT_GE(commits.get_double(1), 1.0);  // the SetUp bulk-insert commit
  } else {
    EXPECT_DOUBLE_EQ(commits.get_double(1), 0.0);
  }
}

TEST_F(SystemTableTest, MetricsTableSupportsFilterAndAggregation) {
  auto rs = conn.execute(
      "SELECT kind, COUNT(*) FROM PERFDMF_METRICS GROUP BY kind");
  EXPECT_GE(rs.row_count(), 1u);
  EXPECT_LE(rs.row_count(), 3u);  // counter, gauge, histogram

  // Histogram rows expose count/sum/percentiles; counters serve NULLs.
  auto hist = conn.execute(
      "SELECT COUNT(*) FROM PERFDMF_METRICS"
      " WHERE kind = 'histogram' AND p95 IS NOT NULL");
  hist.next();
  auto counter_nulls = conn.execute(
      "SELECT COUNT(*) FROM PERFDMF_METRICS"
      " WHERE kind = 'counter' AND p95 IS NULL");
  counter_nulls.next();
  EXPECT_GT(hist.get_int(1), 0);
  EXPECT_GT(counter_nulls.get_int(1), 0);

  // Case-insensitive resolution, like ordinary tables.
  auto lower = conn.execute("SELECT COUNT(*) FROM perfdmf_metrics");
  lower.next();
  EXPECT_GT(lower.get_int(1), 0);
}

TEST_F(SystemTableTest, MetadataReflectsSystemTables) {
  auto meta = conn.get_meta_data();
  const auto tables = meta.get_tables();
  EXPECT_NE(std::find(tables.begin(), tables.end(), "PERFDMF_METRICS"),
            tables.end());
  EXPECT_NE(std::find(tables.begin(), tables.end(), "PERFDMF_SLOW_QUERIES"),
            tables.end());
  const auto columns = meta.get_columns("PERFDMF_METRICS");
  ASSERT_EQ(columns.size(), 8u);
  EXPECT_EQ(columns[0].name, "name");
  const auto slow_columns = meta.get_columns("PERFDMF_SLOW_QUERIES");
  ASSERT_EQ(slow_columns.size(), 13u);
  EXPECT_EQ(slow_columns[3].name, "sql");
  EXPECT_EQ(slow_columns[6].name, "outcome");
}

TEST_F(SystemTableTest, WritesAreRejected) {
  EXPECT_THROW(
      conn.execute_update("INSERT INTO PERFDMF_METRICS (name) VALUES ('x')"),
      DbError);
  EXPECT_THROW(
      conn.execute_update("UPDATE PERFDMF_METRICS SET value = 0"), DbError);
  EXPECT_THROW(conn.execute_update("DELETE FROM PERFDMF_SLOW_QUERIES"),
               DbError);
  EXPECT_THROW(
      conn.execute_update("CREATE TABLE PERFDMF_METRICS (id INTEGER)"),
      DbError);
}

TEST_F(SystemTableTest, SlowQueryTraceEndToEnd) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  auto& ring = TraceRing::instance();
  ring.clear();
  const double saved = slow_query_threshold_ms();
  set_slow_query_threshold_ms(0.0);  // every statement is "slow"
  auto rs = conn.execute("SELECT COUNT(*), AVG(y) FROM t WHERE x = 3");
  ASSERT_EQ(rs.row_count(), 1u);
  set_slow_query_threshold_ms(saved);

  auto traces = conn.execute(
      "SELECT sql, plan, total_ms, parse_ms, execute_ms"
      " FROM PERFDMF_SLOW_QUERIES");
  bool found = false;
  while (traces.next()) {
    if (traces.get_string(1).find("WHERE x = 3") == std::string::npos) continue;
    found = true;
    // EXPLAIN access path was captured because the threshold was armed.
    EXPECT_FALSE(traces.get_string(2).empty());
    EXPECT_GE(traces.get_double(3), 0.0);  // total
    EXPECT_GE(traces.get_double(4), 0.0);  // parse
    EXPECT_GE(traces.get_double(5), 0.0);  // execute
    EXPECT_GE(traces.get_double(3),
              traces.get_double(4));  // phases are a breakdown of total
  }
  EXPECT_TRUE(found) << "slow SELECT did not reach PERFDMF_SLOW_QUERIES";
  ring.clear();
}

TEST(SlowQueryLog, ThresholdRoundTrips) {
  const double saved = slow_query_threshold_ms();
  set_slow_query_threshold_ms(12.5);
  EXPECT_DOUBLE_EQ(slow_query_threshold_ms(), 12.5);
  set_slow_query_threshold_ms(-1.0);
  EXPECT_DOUBLE_EQ(slow_query_threshold_ms(), -1.0);
  set_slow_query_threshold_ms(saved);
}

// ----------------------------------------------------------- JSON exports

TEST(TelemetryJson, EscapesAndExports) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  const std::string metrics = metrics_to_json();
  EXPECT_EQ(metrics.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_EQ(metrics.back(), '}');
  const std::string traces = traces_to_json();
  EXPECT_EQ(traces.rfind("{\"traces\":[", 0), 0u);
}

// ----------------------------------------------------------- concurrency

// Eight threads hammer shared metrics while running real statements (and
// while the main thread snapshots the registry through SQL); exercised
// under TSan via the concurrency label.
TEST(TelemetryConcurrency, EightThreadCounterAndSpanHammer) {
  constexpr int kThreads = 8;
  constexpr int kIters = 200;

  Connection setup;
  setup.execute_update("CREATE TABLE h (id INTEGER PRIMARY KEY, x INTEGER)");
  auto insert = setup.prepare("INSERT INTO h (x) VALUES (?)");
  setup.begin();
  for (int i = 0; i < 64; ++i) {
    insert.set_int(1, i % 4);
    insert.execute_update();
  }
  setup.commit();
  auto database = setup.database_ptr();

  auto& registry = MetricsRegistry::instance();
  Counter& hits = registry.counter("test.hammer.counter");
  Histogram& latencies = registry.histogram("test.hammer.micros");
  hits.reset();
  latencies.reset();

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([database, t] {
      Connection conn(database);
      auto stmt = conn.prepare("SELECT COUNT(*) FROM h WHERE x = ?");
      auto& counter = MetricsRegistry::instance().counter("test.hammer.counter");
      auto& histogram =
          MetricsRegistry::instance().histogram("test.hammer.micros");
      for (int i = 0; i < kIters; ++i) {
        counter.add();
        histogram.record(static_cast<std::uint64_t>(t * kIters + i));
        stmt.set_int(1, i % 4);
        auto rs = stmt.execute_query();
        if (rs.row_count() != 1) std::abort();
      }
    });
  }
  // Race registry snapshots against the recording threads.
  for (int i = 0; i < 20; ++i) {
    auto rs = setup.execute("SELECT COUNT(*) FROM PERFDMF_METRICS");
    rs.next();
    EXPECT_GT(rs.get_int(1), 0);
  }
  for (auto& w : workers) w.join();

  if (compiled_in()) {
    EXPECT_EQ(hits.value(), static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(latencies.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  } else {
    EXPECT_EQ(hits.value(), 0u);
  }
}

// ------------------------------------------------------------- util::log

TEST(Log, ParseLogLevel) {
  using perfdmf::util::LogLevel;
  using perfdmf::util::parse_log_level;
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("none"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
}

TEST(Log, Iso8601Shape) {
  const std::string now = perfdmf::util::iso8601_now();
  ASSERT_EQ(now.size(), 24u);  // YYYY-MM-DDTHH:MM:SS.mmmZ
  EXPECT_EQ(now[4], '-');
  EXPECT_EQ(now[10], 'T');
  EXPECT_EQ(now[19], '.');
  EXPECT_EQ(now.back(), 'Z');
}

TEST(Log, ThreadIdStableAndDistinct) {
  const std::string mine = perfdmf::util::current_thread_id();
  EXPECT_EQ(mine, perfdmf::util::current_thread_id());
  std::string other;
  std::thread([&other] { other = perfdmf::util::current_thread_id(); }).join();
  EXPECT_NE(mine, other);
}

}  // namespace
