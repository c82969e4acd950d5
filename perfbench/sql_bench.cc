// The repository benchmark program. Builds the warehouse of one workload,
// verifies answers against the brute-force oracles, then drives the
// workload's pre-generated SQL through Warehouse::ExecuteSql in a closed
// loop from one client thread and prints the end-to-end metrics
// (--trace 0), or times each layer's public entry point from outside the
// library and prints per-layer metrics (--trace 1). The last line of
// stdout is the result JSON. Run it through run.py, which builds it.
//
//   sql_bench --workload covered_sql --seed 1 --seconds 20 --trace 0
//             [--store-dir DIR] [--trace-out FILE] [--commit ID]

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/thread_pool.h"
#include "core/mini_warehouse.h"
#include "core/result_table.h"
#include "core/warehouse.h"
#include "fragment/plan_cache.h"
#include "fragment/shard_routing.h"
#include "storage/buffer_pool.h"
#include "workload/query_parser.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Warehouse constructions per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Distinct statements per shape checked against the oracles.
constexpr int kOracleSamplesPerShapeRam = 4;
constexpr int kOracleSamplesPerShapePaged = 2;
/// Untimed run of the stream before measuring, so the plan cache and the
/// buffer pool reach their steady state.
constexpr double kWarmupSeconds = 0.25;
/// Length of one window of a measured loop (see RunLoop).
constexpr double kWindowSeconds = 0.25;
/// Statements the traced phase keeps spans for (bounds its memory).
constexpr std::size_t kMaxTracedStatements = 100000;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "sql_bench: %s\n", message.c_str());
  std::exit(1);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string store_dir;
  std::string trace_out;
  std::string commit = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--store-dir") {
      args.store_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Fail("--seconds must be positive");
  return args;
}

// ------------------------------------------------------------ statistics

template <typename T>
double Percentile(std::vector<T> values, double q) {
  if (values.empty()) return 0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(values.size()) - 1,
                       q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return static_cast<double>(values[k]);
}

/// The middle value, or the mean of the two middle values.
double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ------------------------------------------------------------ run context

/// Resident-set figures of this process from /proc/self/status, in MiB.
double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB
    }
  }
  return 0;
}

std::int64_t L3Bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return l3;
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string size;
  if (!(in >> size) || size.empty()) return 0;
  std::int64_t n = std::atoll(size.c_str());
  if (size.back() == 'K') n <<= 10;
  if (size.back() == 'M') n <<= 20;
  return n;
}

/// Wall time of `threads` threads each running the same dependent
/// arithmetic chain.
double SpinSeconds(int threads) {
  constexpr std::uint64_t kIters = 40'000'000;
  std::atomic<std::uint64_t> sink{0};
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      std::uint64_t x = static_cast<std::uint64_t>(t) + 1;
      for (std::uint64_t i = 0; i < kIters; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      sink += x;
    });
  }
  for (auto& th : pool) th.join();
  return Seconds(Clock::now() - start);
}

/// Cores that actually ran in parallel: n threads of equal spin work
/// against one, scaled by n.
double EffectiveCores(int n) {
  const double one = SpinSeconds(1);
  const double many = SpinSeconds(n);
  return static_cast<double>(n) * one / many;
}

/// Cumulative steal and total CPU ticks of the machine from /proc/stat:
/// steal is time the hypervisor ran something else on our vCPUs.
struct CpuTicks {
  std::int64_t steal = 0;
  std::int64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks ticks;
  std::int64_t v = 0;
  for (int field = 0; field < 10 && (in >> v); ++field) {
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double StealFraction(const CpuTicks& before, const CpuTicks& after) {
  return Ratio(static_cast<double>(after.steal - before.steal),
               static_cast<double>(after.total - before.total));
}

std::int64_t DirectoryBytes(const std::string& dir) {
  std::int64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<std::int64_t>(entry.file_size());
    }
  }
  return bytes;
}

// ------------------------------------------------------------ setup

mdw::WarehouseConfig BenchConfig(const WorkloadSpec& spec,
                                 std::uint64_t seed,
                                 const std::string& storage_path) {
  mdw::WarehouseConfig config{.schema = MakeBenchSchema(),
                              .fragmentation = BenchFragmentation(),
                              .backend = mdw::BackendKind::kMaterialized,
                              .seed = seed,
                              .num_workers = spec.num_workers,
                              .num_shards = kNumShards};
  if (spec.paged) {
    config.storage_path = storage_path;
    config.storage_pool_pages = kPoolPages;
  }
  return config;
}

/// Path of construction `k`'s segment directory (paged workloads).
std::string StoreDir(const Args& args, int k) {
  return args.store_dir + "/setup-" + std::to_string(k);
}

// ------------------------------------------------------------ correctness

/// The answer each distinct statement must produce in every timed run.
struct Reference {
  std::vector<mdw::ResultTable> tables;
  std::int64_t oracle_checked = 0;
  std::int64_t oracle_mismatches = 0;
};

bool SameGroups(const std::vector<mdw::GroupRow>& got,
                const std::vector<mdw::GroupRow>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // rows_summarized differs by design: the oracle summarizes nothing.
    if (got[i].key != want[i].key || got[i].rows != want[i].rows ||
        got[i].units_sold != want[i].units_sold ||
        got[i].dollar_sales_cents != want[i].dollar_sales_cents) {
      return false;
    }
  }
  return true;
}

/// Brute-force answer: ExecuteFullScan, or ExecuteFullScanGrouped plus
/// MakeResultTable for GROUP BY / ORDER BY ... LIMIT.
mdw::ResultTable OracleTable(const mdw::MiniWarehouse& mini,
                             const mdw::StarQuery& query) {
  std::vector<mdw::GroupRow> rows;
  if (query.grouped()) {
    rows = mini.ExecuteFullScanGrouped(query);
  } else {
    const auto agg = mini.ExecuteFullScan(query);
    rows.push_back({0, agg.rows, agg.units_sold, agg.dollar_sales_cents, 0});
  }
  return mdw::MakeResultTable(query.aggregates(), query.group_by(),
                              query.order_by(), std::move(rows));
}

/// Executes every distinct statement once through ExecuteSql and enforces
/// the workload's shape guard on each; then checks a seeded, per-shape
/// sample against the oracles bit for bit.
Reference BuildReference(const mdw::Warehouse& wh, const WorkloadSpec& spec,
                         const StatementSet& set, std::uint64_t seed) {
  Reference ref;
  ref.tables.reserve(set.sql.size());
  for (std::size_t i = 0; i < set.sql.size(); ++i) {
    const auto outcome = wh.ExecuteSql(set.sql[i]);
    if (!outcome.ok()) {
      Fail("statement rejected: " + outcome.status().message() + ": " +
           set.sql[i]);
    }
    if (!outcome->status.ok() || !outcome->table.has_value()) {
      Fail("statement failed: " + outcome->status.message() + ": " +
           set.sql[i]);
    }
    // Shape guards: a workload that stops exercising the mechanism it was
    // chosen for fails the run instead of measuring something else.
    if (spec.name == "covered_sql" && outcome->rows_scanned != 0) {
      Fail("covered_sql statement scanned rows: " + set.sql[i]);
    }
    if (spec.name == "scan_sql" && outcome->fragments_summarized != 0) {
      Fail("scan_sql statement used summaries: " + set.sql[i]);
    }
    ref.tables.push_back(*outcome->table);
  }

  const int per_shape = spec.paged ? kOracleSamplesPerShapePaged
                                   : kOracleSamplesPerShapeRam;
  std::mt19937_64 rng(seed ^ 0x6f7261636c65ull);
  std::vector<std::size_t> order(set.sql.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<int> taken(spec.shapes.size(), 0);
  const mdw::MiniWarehouse& mini = *wh.materialized();
  for (const std::size_t i : order) {
    int& count = taken[static_cast<std::size_t>(set.shape[i])];
    if (count >= per_shape) continue;
    ++count;
    const auto query = mdw::ParseSql(wh.schema(), set.sql[i]);
    const mdw::ResultTable want = OracleTable(mini, *query);
    const mdw::ResultTable& got = ref.tables[i];
    ++ref.oracle_checked;
    if (!(got.spec == want.spec && got.group_by == want.group_by &&
          got.order_by == want.order_by && SameGroups(got.rows, want.rows))) {
      ++ref.oracle_mismatches;
      std::fprintf(stderr, "sql_bench: oracle mismatch: %s\n",
                   set.sql[i].c_str());
    }
  }
  return ref;
}

// ------------------------------------------------------------ closed loop

struct LoopResult {
  std::vector<std::uint32_t> latency_ns;  ///< one per statement
  std::vector<std::size_t> window_ends;   ///< end of each window in latency_ns
  double busy_seconds = 0;                ///< summed latency
  std::int64_t failed = 0;
  std::int64_t attempted() const {
    return static_cast<std::int64_t>(latency_ns.size());
  }
};

mdw::storage::PoolStats PoolStatsOf(const mdw::Warehouse& wh) {
  const auto* store = wh.materialized()->paged_store();
  return store == nullptr ? mdw::storage::PoolStats{} : store->pool().stats();
}

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Restricts the calling thread to `cpus`.
void RunOn(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Moves the calling thread round the allowed CPUs, one per Next(), and
/// back onto all of them when destroyed.
///
/// On a shared host a vCPU runs up to ~40% slower for seconds at a time
/// while another tenant loads its core. A client left on one vCPU
/// inherits that vCPU's phases for a whole run; one that moves every
/// kWindowSeconds samples all of them. Threads created while the client
/// is pinned inherit its one CPU, and the library creates its worker
/// pool on its first statement, so a construction's first loop must not
/// rotate.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled)
      : cpus_(enabled ? AllowedCpus() : std::vector<int>{}) {}
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() { RunOn(cpus_); }

  void Next() {
    if (!cpus_.empty()) RunOn({cpus_[next_++ % cpus_.size()]});
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// One client, closed loop: sends the stream's next statement only after
/// the previous one returned, for `seconds`. Only the ExecuteSql call is
/// timed; checking its answer happens outside the timer. The loop runs in
/// windows of kWindowSeconds, with the client on the next CPU in each
/// window if `rotate` (see CpuRotation).
LoopResult RunLoop(const mdw::Warehouse& wh, const StatementSet& set,
                   const Reference& ref, std::size_t* cursor,
                   double seconds, bool rotate) {
  CpuRotation rotation(rotate);
  LoopResult result;
  result.latency_ns.reserve(1 << 20);
  std::int64_t busy_ns = 0;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  const auto window_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowSeconds));
  for (auto now = start; now < stop;) {
    rotation.Next();
    const auto window_stop = std::min(stop, now + window_length);
    while (now < window_stop) {
      const std::uint32_t id = set.stream[*cursor % set.stream.size()];
      ++*cursor;
      const auto t0 = Clock::now();
      const auto outcome = wh.ExecuteSql(set.sql[id]);
      now = Clock::now();
      const std::int64_t ns = Nanos(now - t0);
      busy_ns += ns;
      result.latency_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(ns, UINT32_MAX)));
      if (!outcome.ok() || !outcome->status.ok() || !outcome->table ||
          !(*outcome->table == ref.tables[id])) {
        ++result.failed;
      }
    }
    result.window_ends.push_back(result.latency_ns.size());
  }
  result.busy_seconds = static_cast<double>(busy_ns) * 1e-9;
  return result;
}

/// End-to-end figures of one measured loop.
struct Figures {
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Median latency in us: the median of each window of the loop, averaged
/// over the windows with each weighted by its statements. A slow phase of
/// the host (see RunLoop) then moves it in proportion to the share of the
/// run it covered; the median of all latencies at once jumps between the
/// host's fast and slow levels once that share nears a half.
double WindowedP50Us(const LoopResult& loop) {
  double weighted = 0;
  std::size_t begin = 0;
  for (const std::size_t end : loop.window_ends) {
    const std::vector<std::uint32_t> window(loop.latency_ns.begin() + begin,
                                            loop.latency_ns.begin() + end);
    weighted += Percentile(window, 0.5) * static_cast<double>(end - begin);
    begin = end;
  }
  return Ratio(weighted, static_cast<double>(loop.latency_ns.size())) / 1e3;
}

Figures FiguresOf(const LoopResult& loop) {
  return {Ratio(static_cast<double>(loop.attempted()), loop.busy_seconds),
          WindowedP50Us(loop), Percentile(loop.latency_ns, 0.99) / 1e3};
}

/// paged_sql's shape guard over a measured interval: the pool must serve
/// both hits and misses in real proportion, without storage errors.
void CheckPagedGuard(const mdw::storage::PoolStats& before,
                     const mdw::storage::PoolStats& after) {
  const std::int64_t hits = after.hits - before.hits;
  const std::int64_t misses = after.misses - before.misses;
  const std::int64_t pins = hits + misses;
  if (hits * 5 < pins || misses * 5 < pins) {
    Fail("paged_sql pool no longer mixes hits and misses: hits=" +
         std::to_string(hits) + " misses=" + std::to_string(misses));
  }
  if (after.io_errors != before.io_errors ||
      after.checksum_failures != before.checksum_failures) {
    Fail("paged_sql saw storage errors");
  }
}

// ------------------------------------------------------------ tracing

enum SpanName : std::uint8_t {
  kStatement,
  kParse,
  kPlanKey,
  kPlan,
  kEnumerate,
  kRoute,
  kExec,
  kResultTable,
  kNumSpanNames
};
constexpr const char* kSpanNames[kNumSpanNames] = {
    "statement", "parse", "plan_key",  "plan",
    "enumerate", "route", "exec",      "result_table"};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t statement = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 for a root
  SpanName name = kStatement;
  bool plan_hit = false;  ///< kPlan only: served from the plan cache
};

/// In-memory span recorder; spans are written out when the run ends.
class Tracer {
 public:
  Tracer() : base_(Clock::now()) { spans_.reserve(kMaxTracedStatements * 8); }

  int Begin(SpanName name, std::uint32_t statement, int parent) {
    Span span;
    span.name = name;
    span.statement = statement;
    span.parent = parent;
    span.start_ns = Nanos(Clock::now() - base_);
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) {
    spans_[static_cast<std::size_t>(span)].end_ns = Nanos(Clock::now() - base_);
  }
  Span& at(int span) { return spans_[static_cast<std::size_t>(span)]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point base_;
  std::vector<Span> spans_;
};

/// Counters gathered at the same boundaries the spans cover.
struct TraceCounters {
  std::int64_t statements = 0;
  std::int64_t failed = 0;
  std::int64_t fragments = 0;
  std::int64_t scan_runs = 0;
  std::int64_t summary_runs = 0;
  std::int64_t rows_scanned = 0;
  std::int64_t rows_summarized = 0;
  std::int64_t fragments_summarized = 0;
  std::int64_t result_rows = 0;
  std::int64_t bitmaps_per_fragment = 0;
  double shard_skew = 0;
  mdw::PlanCache::Stats cache_before, cache_after;
  mdw::storage::PoolStats pool_before, pool_after;
};

/// Times each layer's public entry point once per statement, in the order
/// ExecuteSql runs them: ParseSql -> PlanShared -> ExecuteWithPlan ->
/// MakeResultTable (never ExecuteSql on top, so no statement runs twice
/// and a paged statement does not find pages its own first run faulted
/// in). CanonicalQuerySignature, ForEachFragment and
/// RouteSelectionToShards are stateless and are timed on the side.
TraceCounters RunTraced(const mdw::Warehouse& wh, const WorkloadSpec& spec,
                        const StatementSet& set, const Reference& ref,
                        std::size_t* cursor, double seconds, Tracer* tracer) {
  const mdw::MiniWarehouse& mini = *wh.materialized();
  std::unique_ptr<mdw::ThreadPool> pool;
  if (spec.num_workers > 1) {
    pool = std::make_unique<mdw::ThreadPool>(spec.num_workers - 1);
  }
  mdw::MiniWarehouse::ExecScratch scratch;
  const std::function<void(mdw::FragId)> noop = [](mdw::FragId) {};
  const auto shard_of = [&mini](mdw::FragId id) {
    return mini.ShardOfFragment(id);
  };
  const auto rows_of = [&mini](mdw::FragId id) {
    return mini.FragmentRows(id);
  };

  TraceCounters c;
  c.cache_before = wh.plan_cache_stats();
  c.pool_before = PoolStatsOf(wh);
  // Rotates like the untraced loop, so trace.overhead_frac compares runs
  // placed alike. The pool above exists before the client is pinned.
  CpuRotation rotation(/*enabled=*/true);
  const auto window_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowSeconds));
  auto window_stop = Clock::now();
  const auto stop = window_stop + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (auto now = window_stop;
       now < stop &&
       static_cast<std::size_t>(c.statements) < kMaxTracedStatements;
       now = Clock::now()) {
    if (now >= window_stop) {
      rotation.Next();
      window_stop = now + window_length;
    }
    const std::uint32_t id = set.stream[*cursor % set.stream.size()];
    ++*cursor;
    const auto stmt = static_cast<std::uint32_t>(c.statements++);
    const int root = tracer->Begin(kStatement, stmt, -1);

    int span = tracer->Begin(kParse, stmt, root);
    const auto query = mdw::ParseSql(wh.schema(), set.sql[id]);
    tracer->End(span);
    if (!query.ok()) {
      tracer->End(root);
      ++c.failed;
      continue;
    }

    span = tracer->Begin(kPlanKey, stmt, root);
    const std::string key = mdw::CanonicalQuerySignature(*query);
    tracer->End(span);

    const std::uint64_t hits_before = wh.plan_cache_stats().hits;
    span = tracer->Begin(kPlan, stmt, root);
    const auto plan = wh.PlanShared(*query);
    tracer->End(span);
    tracer->at(span).plan_hit = wh.plan_cache_stats().hits > hits_before;

    span = tracer->Begin(kEnumerate, stmt, root);
    plan->ForEachFragment(noop);
    tracer->End(span);

    span = tracer->Begin(kRoute, stmt, root);
    const auto routed = mdw::RouteSelectionToShards(
        *plan, mini.num_shards(), mini.summaries_enabled(), shard_of, rows_of);
    tracer->End(span);

    span = tracer->Begin(kExec, stmt, root);
    auto exec = mini.ExecuteWithPlan(*query, *plan, pool.get(), &scratch);
    tracer->End(span);

    span = tracer->Begin(kResultTable, stmt, root);
    std::vector<mdw::GroupRow> rows;
    if (query->grouped()) {
      rows = std::move(exec.groups);
    } else {
      rows.push_back({0, exec.result.rows, exec.result.units_sold,
                      exec.result.dollar_sales_cents, exec.rows_summarized});
    }
    const mdw::ResultTable table =
        mdw::MakeResultTable(query->aggregates(), query->group_by(),
                             query->order_by(), std::move(rows));
    tracer->End(span);
    tracer->End(root);

    if (!exec.status.ok() || !(table == ref.tables[id])) {
      ++c.failed;
    }
    c.fragments += plan->FragmentCount();
    for (const auto& shard : routed) {
      c.scan_runs += static_cast<std::int64_t>(shard.scan.size());
      c.summary_runs += static_cast<std::int64_t>(shard.summary.size());
    }
    c.rows_scanned += exec.rows_scanned;
    c.rows_summarized += exec.rows_summarized;
    c.fragments_summarized += exec.fragments_summarized;
    c.result_rows += static_cast<std::int64_t>(table.rows.size());
    c.bitmaps_per_fragment += exec.bitmaps_read;
    c.shard_skew += exec.ShardSkew();
  }
  c.cache_after = wh.plan_cache_stats();
  c.pool_after = PoolStatsOf(wh);
  return c;
}

void WriteSpans(const std::string& path, const Tracer& tracer) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << "span\tparent\tstatement\tname\tstart_ns\tend_ns\tplan_hit\n";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.parent << '\t' << s.statement << '\t'
        << kSpanNames[s.name] << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << (s.plan_hit ? 1 : 0) << '\n';
  }
  if (!out) Fail("cannot write spans to " + path);
}

/// Nanoseconds CRC-32C takes over one 4 KiB page, median of repeated
/// passes over a buffer of random pages.
double CrcNsPerPage() {
  constexpr std::size_t kPage = 4096, kPages = 256;
  std::vector<unsigned char> buf(kPage * kPages);
  std::mt19937_64 rng(7);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  std::vector<double> samples;
  std::atomic<std::uint32_t> sink{0};
  for (int rep = 0; rep < 41; ++rep) {
    const auto t0 = Clock::now();
    std::uint32_t crc = 0;
    for (std::size_t p = 0; p < kPages; ++p) {
      crc ^= mdw::Crc32c(buf.data() + p * kPage, kPage);
    }
    sink += crc;
    samples.push_back(static_cast<double>(Nanos(Clock::now() - t0)) /
                      static_cast<double>(kPages));
  }
  return Median(samples);
}

// ------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Per(std::int64_t num, std::int64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

std::vector<Metric> LayerMetrics(const Tracer& tracer, const TraceCounters& c,
                                 const LoopResult& untraced, double crc_ns) {
  std::vector<std::vector<double>> dur(kNumSpanNames);
  std::vector<double> plan_hit, plan_miss, root_self;
  const auto& spans = tracer.spans();
  std::vector<double> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto d = static_cast<double>(s.end_ns - s.start_ns);
    dur[s.name].push_back(d);
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += d;
    if (s.name == kPlan) (s.plan_hit ? plan_hit : plan_miss).push_back(d);
  }
  // Self time: a span's duration minus what its children cover. Layer
  // spans are leaves; the root's self time is the benchmark's own glue.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      root_self.push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) -
          child_ns[i]);
    }
  }
  double exec_total_ns = 0;
  for (double d : dur[kExec]) exec_total_ns += d;
  double root_total_ns = 0;
  for (double d : dur[kStatement]) root_total_ns += d;

  const std::int64_t n = c.statements;
  const std::int64_t cache_hits = static_cast<std::int64_t>(
      c.cache_after.hits - c.cache_before.hits);
  const std::int64_t cache_misses = static_cast<std::int64_t>(
      c.cache_after.misses - c.cache_before.misses);
  const auto& p0 = c.pool_before;
  const auto& p1 = c.pool_after;
  const std::int64_t pins = (p1.hits - p0.hits) + (p1.misses - p0.misses);
  const double untraced_mean_ns =
      Ratio(untraced.busy_seconds * 1e9,
            static_cast<double>(untraced.attempted()));
  const double traced_mean_ns = Ratio(root_total_ns, static_cast<double>(n));

  return {
      {"parse.ns_p50", Percentile(dur[kParse], 0.5), "ns"},
      {"parse.ns_p99", Percentile(dur[kParse], 0.99), "ns"},
      {"plan_key.ns_p50", Percentile(dur[kPlanKey], 0.5), "ns"},
      {"plan_lookup.ns_p50", Percentile(plan_hit, 0.5), "ns"},
      {"plan_derive.ns_p50", Percentile(plan_miss, 0.5), "ns"},
      {"plan_cache.hit_rate",
       Per(cache_hits, cache_hits + cache_misses), "ratio"},
      {"plan_cache.evictions_per_query",
       Per(static_cast<std::int64_t>(c.cache_after.evictions -
                                     c.cache_before.evictions),
           n),
       "count"},
      {"plan.fragments_per_query", Per(c.fragments, n), "count"},
      {"enumerate.ns_p50", Percentile(dur[kEnumerate], 0.5), "ns"},
      {"route.ns_p50", Percentile(dur[kRoute], 0.5), "ns"},
      {"route.scan_runs_per_query", Per(c.scan_runs, n), "count"},
      {"route.summary_runs_per_query", Per(c.summary_runs, n), "count"},
      {"exec.ns_p50", Percentile(dur[kExec], 0.5), "ns"},
      {"exec.ns_p99", Percentile(dur[kExec], 0.99), "ns"},
      {"exec.rows_scanned_per_query", Per(c.rows_scanned, n), "count"},
      {"exec.rows_summarized_per_query", Per(c.rows_summarized, n), "count"},
      {"exec.fragments_summarized_per_query",
       Per(c.fragments_summarized, n), "count"},
      {"exec.rows_scanned_per_result_row", Per(c.rows_scanned, c.result_rows),
       "ratio"},
      {"exec.bitmaps_per_fragment", Per(c.bitmaps_per_fragment, n), "count"},
      {"exec.shard_skew_mean", Ratio(c.shard_skew, static_cast<double>(n)),
       "ratio"},
      {"result_table.ns_p50", Percentile(dur[kResultTable], 0.5), "ns"},
      {"pool.hit_rate", Per(p1.hits - p0.hits, pins), "ratio"},
      {"pool.pages_read_per_query", Per(p1.pages_read - p0.pages_read, n),
       "count"},
      {"pool.bytes_read_per_query", Per(p1.bytes_read - p0.bytes_read, n),
       "bytes"},
      {"pool.evictions_per_query", Per(p1.evictions - p0.evictions, n),
       "count"},
      {"pool.prefetched_per_query", Per(p1.prefetched - p0.prefetched, n),
       "count"},
      {"pool.io_errors", static_cast<double>(p1.io_errors - p0.io_errors),
       "count"},
      {"pool.io_retries", static_cast<double>(p1.io_retries - p0.io_retries),
       "count"},
      {"crc.ns_per_page", crc_ns, "ns"},
      // An estimate, not a measurement: pages faulted x the standalone
      // per-page CRC cost, over the measured execution time.
      {"crc.est_share_of_exec",
       Ratio(static_cast<double>(p1.pages_read - p0.pages_read) * crc_ns,
             exec_total_ns),
       "ratio"},
      {"statement.self_ns_p50", Percentile(root_self, 0.5), "ns"},
      {"trace.overhead_frac",
       Ratio(traced_mean_ns - untraced_mean_ns, untraced_mean_ns), "ratio"},
  };
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Fail("unknown workload '" + args.workload + "'");
  if (spec->paged && args.store_dir.empty()) {
    Fail("paged workloads need --store-dir");
  }

  // Inputs first: the program only ever sees the generated SQL.
  const StatementSet set =
      GenerateStatements(*spec, MakeBenchSchema(), args.seed);

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const double effective_cores = EffectiveCores(std::max(nproc, 1));
  const CpuTicks ticks_before = ReadCpuTicks();

  // The warehouse is constructed kSetupRepeats times, and each
  // construction is measured for an equal share of the time. setup_s is
  // the median construction time; qps, p50_us and p99_us are taken over
  // every statement of every construction's measured loop, which spreads
  // the sample over the whole run instead of one stretch of it.
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> setup_seconds;
  Reference ref;
  LoopResult all_loops;
  LoopResult last_loop;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t store_bytes = 0;
  double peak_rss_mb = 0;
  std::unique_ptr<mdw::Warehouse> wh;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (wh != nullptr) {
      wh.reset();
      if (spec->paged) fs::remove_all(StoreDir(args, k - 1));
    }
    // A fresh directory per construction: each one pays the segment
    // writes instead of reusing the previous construction's files.
    mdw::WarehouseConfig config =
        BenchConfig(*spec, args.seed, spec->paged ? StoreDir(args, k) : "");
    const auto start = Clock::now();
    wh = std::make_unique<mdw::Warehouse>(std::move(config));
    setup_seconds.push_back(Seconds(Clock::now() - start));
    if (spec->paged) store_bytes = DirectoryBytes(StoreDir(args, k));
    if (k == 0) ref = BuildReference(*wh, *spec, set, args.seed);

    std::size_t cursor = 0;
    RunLoop(*wh, set, ref, &cursor, kWarmupSeconds, /*rotate=*/false);
    const auto pool_before = PoolStatsOf(*wh);
    last_loop =
        RunLoop(*wh, set, ref, &cursor, untraced_seconds / kSetupRepeats,
                /*rotate=*/true);
    if (spec->paged) CheckPagedGuard(pool_before, PoolStatsOf(*wh));
    const Figures figures = FiguresOf(last_loop);
    std::fprintf(stderr,
                 "sql_bench: construction %d: setup %.3f s, %lld statements, "
                 "qps %.1f, p50 %.2f us, p99 %.2f us, peak rss %.1f MB\n",
                 k + 1, setup_seconds.back(),
                 static_cast<long long>(last_loop.attempted()), figures.qps,
                 figures.p50_us, figures.p99_us, ProcStatusMb("VmHWM"));
    // Peak memory of one warehouse and its workload. Later constructions
    // reuse memory the allocator kept from the earlier ones, and how much
    // of it stays resident varied by ~50 MB from run to run.
    if (k == 0) peak_rss_mb = ProcStatusMb("VmHWM");
    for (const std::size_t end : last_loop.window_ends) {
      all_loops.window_ends.push_back(all_loops.latency_ns.size() + end);
    }
    all_loops.latency_ns.insert(all_loops.latency_ns.end(),
                                last_loop.latency_ns.begin(),
                                last_loop.latency_ns.end());
    all_loops.busy_seconds += last_loop.busy_seconds;
    attempted += last_loop.attempted();
    failed += last_loop.failed;
  }
  attempted += ref.oracle_checked;
  failed += ref.oracle_mismatches;

  const auto print_context = [&] {
    // The single-thread spin time is taken after the measurement: it
    // shows how fast a core ran then, next to the steal fraction.
    std::printf(
        "context {\"workload\": \"%s\", \"seed\": %llu, \"commit\": \"%s\", "
        "\"nproc\": %d, \"effective_cores\": %.2f, \"spin_ms\": %.2f, "
        "\"steal_frac\": %.4f, \"l3_bytes\": %lld, \"dataset_rows\": %lld, "
        "\"rss_mb\": %.1f, \"segment_bytes\": %lld, \"pool_pages\": %lld, "
        "\"num_workers\": %d, \"num_shards\": %d, "
        "\"distinct_statements\": %zu, \"oracle_checked\": %lld}\n",
        spec->name.c_str(), static_cast<unsigned long long>(args.seed),
        args.commit.c_str(), nproc, effective_cores, SpinSeconds(1) * 1e3,
        StealFraction(ticks_before, ReadCpuTicks()),
        static_cast<long long>(L3Bytes()),
        static_cast<long long>(wh->materialized()->row_count()),
        ProcStatusMb("VmRSS"), static_cast<long long>(store_bytes),
        static_cast<long long>(spec->paged ? kPoolPages : 0),
        spec->num_workers, kNumShards, set.sql.size(),
        static_cast<long long>(ref.oracle_checked));
  };

  if (!args.trace) {
    print_context();
    // Printed for the reader; not part of the result JSON, whose metrics
    // must never read 0 (the error rate is failed / attempted there).
    std::printf("metric %-36s %.6g %s\n", "error_rate", Per(failed, attempted),
                "ratio");
    if (spec->paged) {
      std::printf("metric %-36s %.6g %s\n", "store_mb",
                  static_cast<double>(store_bytes) / (1 << 20), "MB");
    }
    const Figures figures = FiguresOf(all_loops);
    PrintResult(failed == 0, attempted, failed,
                {{"qps", figures.qps, "1/s"},
                 {"p50_us", figures.p50_us, "us"},
                 {"p99_us", figures.p99_us, "us"},
                 {"setup_s", Median(setup_seconds), "s"},
                 {"peak_rss_mb", peak_rss_mb, "MB"}});
    return 0;
  }

  // The traced phase runs on the last construction, right after its
  // untraced share, which trace.overhead_frac compares it with.
  std::size_t cursor = 0;
  Tracer tracer;
  const TraceCounters counters =
      RunTraced(*wh, *spec, set, ref, &cursor, args.seconds / 2, &tracer);
  if (spec->paged) CheckPagedGuard(counters.pool_before, counters.pool_after);
  print_context();
  WriteSpans(args.trace_out, tracer);
  attempted += counters.statements;
  failed += counters.failed;
  PrintResult(failed == 0, attempted, failed,
              LayerMetrics(tracer, counters, last_loop, CrcNsPerPage()));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
