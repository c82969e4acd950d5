// Micro-benchmarks (google-benchmark) for the core data structures:
// bitvector Boolean ops, encoded-index selections, fragment mapping,
// query planning and the plan-first/plan-cache façade paths.

#include <benchmark/benchmark.h>
#include <stdlib.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "bitmap/compressed_bitvector.h"
#include "bitmap/encoded_bitmap_index.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/mini_warehouse.h"
#include "core/warehouse.h"
#include "fragment/plan_cache.h"
#include "fragment/query_planner.h"
#include "index/btree.h"
#include "sched/query_scheduler.h"
#include "schema/apb1.h"
#include "schema/star_schema.h"
#include "workload/arrival_generator.h"
#include "workload/query_parser.h"

namespace {

void BM_BitVectorAnd(benchmark::State& state) {
  const auto bits = static_cast<std::int64_t>(state.range(0));
  mdw::BitVector a(bits), b(bits);
  mdw::Rng rng(1);
  for (std::int64_t i = 0; i < bits; i += 64) a.Set(i);
  for (std::int64_t i = 0; i < bits; i += 128) b.Set(i);
  for (auto _ : state) {
    mdw::BitVector c = a;
    c &= b;
    benchmark::DoNotOptimize(c.Count());
  }
  state.SetBytesProcessed(state.iterations() * bits / 8);
}
BENCHMARK(BM_BitVectorAnd)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_BitVectorPopcount(benchmark::State& state) {
  const auto bits = static_cast<std::int64_t>(state.range(0));
  mdw::BitVector a(bits);
  for (std::int64_t i = 0; i < bits; i += 3) a.Set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Count());
  }
  state.SetBytesProcessed(state.iterations() * bits / 8);
}
BENCHMARK(BM_BitVectorPopcount)->Arg(1 << 16)->Arg(1 << 20);

void BM_EncodedIndexSelect(benchmark::State& state) {
  const mdw::Hierarchy product({{"division", 8},
                                {"line", 24},
                                {"family", 120},
                                {"group", 480},
                                {"class", 960},
                                {"code", 14'400}});
  mdw::Rng rng(2);
  std::vector<mdw::LeafKey> column;
  for (int i = 0; i < 100'000; ++i) {
    column.push_back(static_cast<mdw::LeafKey>(rng.Uniform(0, 14'399)));
  }
  const mdw::EncodedBitmapIndex index(product, column);
  const auto depth = static_cast<mdw::Depth>(state.range(0));
  std::int64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Select(depth, v));
    v = (v + 1) % product.Cardinality(depth);
  }
}
BENCHMARK(BM_EncodedIndexSelect)->Arg(0)->Arg(3)->Arg(5);

void BM_FragmentOfRow(benchmark::State& state) {
  const auto schema = mdw::MakeApb1Schema();
  const mdw::Fragmentation frag(
      &schema, {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}});
  mdw::Rng rng(3);
  std::vector<std::vector<std::int64_t>> rows;
  for (int i = 0; i < 1'000; ++i) {
    rows.push_back({rng.Uniform(0, 14'399), rng.Uniform(0, 1'439),
                    rng.Uniform(0, 14), rng.Uniform(0, 23)});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(frag.FragmentOfRow(rows[i]));
    i = (i + 1) % rows.size();
  }
}
BENCHMARK(BM_FragmentOfRow);

void BM_PlanQuery(benchmark::State& state) {
  const auto schema = mdw::MakeApb1Schema();
  const mdw::Fragmentation frag(
      &schema, {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}});
  const mdw::QueryPlanner planner(&schema, &frag);
  const auto query = mdw::apb1_queries::OneCodeOneQuarter(35, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Plan(query));
  }
}
BENCHMARK(BM_PlanQuery);

void BM_CompressedBitmapAnd(benchmark::State& state) {
  const std::int64_t bits = 1 << 20;
  mdw::BitVector a(bits), b(bits);
  for (std::int64_t i = 0; i < bits; i += state.range(0)) a.Set(i);
  for (std::int64_t i = 0; i < bits; i += 2 * state.range(0)) b.Set(i);
  const mdw::CompressedBitVector ca(a), cb(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ca.And(cb));
  }
  state.counters["ratio"] = ca.CompressionRatio();
}
BENCHMARK(BM_CompressedBitmapAnd)->Arg(3)->Arg(64)->Arg(1440);

void BM_WahCompress(benchmark::State& state) {
  const std::int64_t bits = 1 << 20;
  mdw::BitVector a(bits);
  for (std::int64_t i = 0; i < bits; i += state.range(0)) a.Set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mdw::CompressedBitVector(a));
  }
  state.SetBytesProcessed(state.iterations() * bits / 8);
}
BENCHMARK(BM_WahCompress)->Arg(3)->Arg(1440);

void BM_BtreeLookup(benchmark::State& state) {
  mdw::BPlusTree tree;
  const std::int64_t n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) tree.Insert(i, i);
  std::int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(key));
    key = (key + 7'919) % n;
  }
}
BENCHMARK(BM_BtreeLookup)->Arg(1'000)->Arg(100'000);

void BM_BtreeRangeScan(benchmark::State& state) {
  mdw::BPlusTree tree;
  for (std::int64_t i = 0; i < 100'000; ++i) tree.Insert(i, i);
  std::int64_t lo = 0;
  for (auto _ : state) {
    std::int64_t sum = 0;
    tree.Scan(lo, lo + 999,
              [&sum](std::int64_t, std::int64_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
    lo = (lo + 1'000) % 99'000;
  }
}
BENCHMARK(BM_BtreeRangeScan);

void BM_ParseSql(benchmark::State& state) {
  const auto schema = mdw::MakeApb1Schema();
  const std::string sql =
      "SELECT SUM(UnitsSold), SUM(DollarSales) FROM sales "
      "WHERE time.month = 3 AND product.group = 41";
  for (auto _ : state) {
    benchmark::DoNotOptimize(mdw::ParseSql(schema, sql));
  }
}
BENCHMARK(BM_ParseSql);

void BM_PlanUnsupportedQuery(benchmark::State& state) {
  // 1STORE's plan includes full slices (24 x 480 values).
  const auto schema = mdw::MakeApb1Schema();
  const mdw::Fragmentation frag(
      &schema, {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}});
  const mdw::QueryPlanner planner(&schema, &frag);
  const auto query = mdw::apb1_queries::OneStore(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Plan(query));
  }
}
BENCHMARK(BM_PlanUnsupportedQuery);

// ---------------------------------------------------------------------------
// Plan-first façade: planning throughput with and without the plan cache,
// and the end-to-end N-derivations-per-batch guarantee.

mdw::Warehouse SimulatedWarehouse(std::size_t plan_cache_capacity) {
  mdw::SimConfig sim;
  sim.num_disks = 20;
  sim.num_nodes = 4;
  return mdw::Warehouse({.schema = mdw::MakeApb1Schema(),
                         .fragmentation = {{mdw::kApb1Time, 2},
                                           {mdw::kApb1Product, 3}},
                         .backend = mdw::BackendKind::kSimulated,
                         .sim = sim,
                         .plan_cache_capacity = plan_cache_capacity});
}

// Uncached façade planning: one full QueryPlanner derivation per call.
void BM_WarehousePlanUncached(benchmark::State& state) {
  const auto wh = SimulatedWarehouse(/*plan_cache_capacity=*/0);
  const auto query = mdw::apb1_queries::OneCodeOneQuarter(35, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wh.PlanShared(query));
  }
}
BENCHMARK(BM_WarehousePlanUncached);

// Repeated workload through the plan cache: every iteration is a hit, so
// the per-call cost drops to a signature + LRU lookup. Compare against
// BM_WarehousePlanUncached for the cache's repeated-workload speedup.
void BM_WarehousePlanCacheHit(benchmark::State& state) {
  const auto wh = SimulatedWarehouse(/*plan_cache_capacity=*/256);
  const auto query = mdw::apb1_queries::OneCodeOneQuarter(35, 2);
  wh.PlanShared(query);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(wh.PlanShared(query));
  }
  state.counters["hit_rate"] = wh.plan_cache_stats().HitRate();
}
BENCHMARK(BM_WarehousePlanCacheHit);

// End-to-end batch planning through Warehouse::ExecuteBatch on the
// materialized backend. The plans_per_query counter proves the plan-first
// pipeline's N (not 2N) derivations per batch of N distinct queries.
void BM_MaterializedBatchPlanFirst(benchmark::State& state) {
  const mdw::Warehouse wh({.schema = mdw::MakeTinyApb1Schema(),
                           .fragmentation = {{mdw::kApb1Time, 2},
                                             {mdw::kApb1Product, 3}},
                           .backend = mdw::BackendKind::kMaterialized,
                           .seed = 42,
                           .plan_cache_capacity = 0});
  std::vector<mdw::StarQuery> queries;
  for (std::int64_t month = 0; month < 12; ++month) {
    queries.push_back(mdw::apb1_queries::OneMonthOneGroup(month, month));
  }
  const auto before = mdw::QueryPlanner::LifetimePlanCount();
  std::uint64_t batches = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wh.ExecuteBatch(queries));
    ++batches;
  }
  state.counters["plans_per_query"] =
      static_cast<double>(mdw::QueryPlanner::LifetimePlanCount() - before) /
      static_cast<double>(batches * queries.size());
}
BENCHMARK(BM_MaterializedBatchPlanFirst);

// ---------------------------------------------------------------------------
// Fragment-clustered storage + partition-parallel execution.

// A mid-size APB-1-shaped schema (~2M fact rows at density 0.25): big
// enough that fragment confinement and parallel scans are measurable,
// small enough to materialise at bench startup.
mdw::StarSchema MakeMediumApb1Schema() {
  mdw::Dimension product("product",
                         mdw::Hierarchy({{"division", 2},
                                         {"line", 8},
                                         {"family", 24},
                                         {"group", 96},
                                         {"class", 480},
                                         {"code", 960}}),
                         mdw::IndexKind::kEncoded);
  mdw::Dimension customer("customer",
                          mdw::Hierarchy({{"retailer", 12}, {"store", 120}}),
                          mdw::IndexKind::kEncoded);
  mdw::Dimension channel("channel", mdw::Hierarchy({{"channel", 3}}),
                         mdw::IndexKind::kSimple);
  mdw::Dimension time("time",
                      mdw::Hierarchy(
                          {{"year", 2}, {"quarter", 8}, {"month", 24}}),
                      mdw::IndexKind::kSimple);
  return mdw::StarSchema("medium_sales",
                         {std::move(product), std::move(customer),
                          std::move(channel), std::move(time)},
                         /*density=*/0.25, mdw::PhysicalParams{});
}

// Shared across the MDHF benchmarks (fragment-clustered under
// {time::month, product::group}; serial backend — BM_MdhfParallelScan
// brings its own pool).
const mdw::Warehouse& MediumWarehouse() {
  static const auto* wh = new mdw::Warehouse(
      {.schema = MakeMediumApb1Schema(),
       .fragmentation = {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}},
       .backend = mdw::BackendKind::kMaterialized,
       .seed = 42,
       .num_workers = 1});
  return *wh;
}

// Column bytes a residual scan of `rows` rows reads: the two int32_t
// measures, plus the LeafKey group-key column when the scan is grouped.
// Benches report it through SetBytesProcessed, so bytes_per_second shows
// how close a scan runs to memory bandwidth.
std::int64_t ScanColumnBytes(std::int64_t rows, bool grouped) {
  const auto row_bytes = static_cast<std::int64_t>(
      2 * sizeof(std::int32_t) + (grouped ? sizeof(mdw::LeafKey) : 0));
  return rows * row_bytes;
}

// Fragment confinement: rows_scanned per query tracks the plan's fragment
// set, so wall time drops superlinearly with selectivity (arg 0 = no
// support / all fragments, 1 = 1MONTH / 1 of 24 months, 2 = 1MONTH1GROUP
// / 1 of 2304 fragments).
void BM_MdhfFragmentConfined(benchmark::State& state) {
  const auto& wh = MediumWarehouse();
  const mdw::StarQuery query = [&] {
    switch (state.range(0)) {
      case 0: return mdw::apb1_queries::OneStore(17);
      case 1: return mdw::apb1_queries::OneMonth(3);
      default: return mdw::apb1_queries::OneMonthOneGroup(3, 41);
    }
  }();
  std::int64_t rows_scanned = 0;
  for (auto _ : state) {
    const auto outcome = wh.Execute(query);
    rows_scanned = outcome.rows_scanned;
    benchmark::DoNotOptimize(outcome.aggregate->rows);
  }
  state.SetLabel(query.name());
  state.counters["rows_scanned_per_query"] =
      static_cast<double>(rows_scanned);
  state.counters["rows_total"] =
      static_cast<double>(wh.materialized()->row_count());
}
BENCHMARK(BM_MdhfFragmentConfined)->Arg(0)->Arg(1)->Arg(2);

// Partition parallelism: one heavy query (no fragmentation support, so
// every fragment's row range is processed, with an encoded-index bitmap
// filter) split over a worker pool. rows_scanned is identical at every
// degree; real time should shrink with workers on multi-core hardware.
// Coverage-aware aggregation: a hierarchy-aligned query's fragments are
// fully covered, so the answer comes from the measure prefix sums without
// scanning a row (arg 0; expect rows_scanned == 0 and fragments_summarized
// == fragments_processed). Compare against a residual query whose CODE
// predicate filters inside the fragment (arg 1) and against the same
// aligned query with summaries disabled, i.e. the plain fragment-confined
// scan (arg 2).
void BM_MdhfCoveredAggregate(benchmark::State& state) {
  static const auto* without_summaries = new mdw::Warehouse(
      {.schema = MakeMediumApb1Schema(),
       .fragmentation = {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}},
       .backend = mdw::BackendKind::kMaterialized,
       .seed = 42,
       .num_workers = 1,
       .enable_fragment_summaries = false});
  const bool summaries_off = state.range(0) == 2;
  const auto& wh = summaries_off ? *without_summaries : MediumWarehouse();
  const mdw::MiniWarehouse& mini = *wh.materialized();
  const mdw::StarQuery query =
      state.range(0) == 1 ? mdw::apb1_queries::OneCodeOneMonth(415, 3)
                          : mdw::apb1_queries::OneMonthOneGroup(3, 41);
  // Plan-first, like production batches: the measured loop is the
  // execution path (summary lookup vs range scan), not plan derivation.
  const auto plan = wh.Plan(query);
  mdw::MiniWarehouse::MdhfExecution exec;
  for (auto _ : state) {
    exec = mini.ExecuteWithPlan(query, plan);
    benchmark::DoNotOptimize(exec.result.rows);
  }
  state.SetLabel(std::string(query.name()) +
                 (summaries_off ? "/summaries_off" : ""));
  state.counters["rows_scanned_per_query"] =
      static_cast<double>(exec.rows_scanned);
  state.counters["rows_summarized_per_query"] =
      static_cast<double>(exec.rows_summarized);
  state.counters["fragments_summarized"] =
      static_cast<double>(exec.fragments_summarized);
  state.counters["fragments_processed"] =
      static_cast<double>(exec.fragments_processed);
}
BENCHMARK(BM_MdhfCoveredAggregate)->Arg(0)->Arg(1)->Arg(2);

// Grouped aggregation vs the fragmentation: the same one-quarter
// selection grouped at the time fragmentation level (arg 0: aligned,
// per-group answers straight from the prefix sums), above it (arg 1:
// aligned rollup), below the product fragmentation level (arg 2:
// per-row grouping, summaries bypassed), and aligned with summaries
// disabled (arg 3: the scan floor). rows_scanned_per_query separates
// the covered-group fast path from the scan path.
void BM_GroupByRollup(benchmark::State& state) {
  static const auto* without_summaries = new mdw::Warehouse(
      {.schema = MakeMediumApb1Schema(),
       .fragmentation = {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}},
       .backend = mdw::BackendKind::kMaterialized,
       .seed = 42,
       .num_workers = 1,
       .enable_fragment_summaries = false});
  const bool summaries_off = state.range(0) == 3;
  const auto& wh = summaries_off ? *without_summaries : MediumWarehouse();
  const mdw::GroupBy group_by = [&] {
    switch (state.range(0)) {
      case 1: return mdw::GroupBy{mdw::kApb1Time, 1};     // quarter
      case 2: return mdw::GroupBy{mdw::kApb1Product, 4};  // class
      default: return mdw::GroupBy{mdw::kApb1Time, 2};    // month
    }
  }();
  const auto query = mdw::apb1_queries::OneQuarter(2).WithGroupBy(group_by);
  mdw::QueryOutcome outcome;
  for (auto _ : state) {
    outcome = wh.Execute(query);
    benchmark::DoNotOptimize(outcome.table->rows.size());
  }
  state.SetLabel(std::string("group_d") + std::to_string(group_by.depth) +
                 "_dim" + std::to_string(group_by.dim) +
                 (summaries_off ? "/summaries_off" : ""));
  state.SetBytesProcessed(state.iterations() *
                          ScanColumnBytes(outcome.rows_scanned,
                                          /*grouped=*/true));
  state.counters["groups"] =
      static_cast<double>(outcome.table->rows.size());
  state.counters["rows_scanned_per_query"] =
      static_cast<double>(outcome.rows_scanned);
  state.counters["rows_summarized_per_query"] =
      static_cast<double>(outcome.rows_summarized);
}
BENCHMARK(BM_GroupByRollup)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Deterministic top-k on top of grouped aggregation: ORDER BY
// SUM(DollarSales) DESC LIMIT k over the 96 product groups (arg = k,
// 0 = full sort). The sort is post-aggregation, so the spread between
// arg values is the partial-sort cost alone.
void BM_TopK(benchmark::State& state) {
  const auto& wh = MediumWarehouse();
  const auto query =
      mdw::StarQuery("ALL", {})
          .WithGroupBy({mdw::kApb1Product, 3})
          .WithOrderBy({/*item=*/1, /*descending=*/true,
                        /*limit=*/state.range(0)});
  mdw::QueryOutcome outcome;
  for (auto _ : state) {
    outcome = wh.Execute(query);
    benchmark::DoNotOptimize(outcome.table->rows.size());
  }
  state.counters["groups"] =
      static_cast<double>(outcome.table->rows.size());
  state.counters["rows_scanned_per_query"] =
      static_cast<double>(outcome.rows_scanned);
  state.counters["rows_summarized_per_query"] =
      static_cast<double>(outcome.rows_summarized);
}
BENCHMARK(BM_TopK)->Arg(0)->Arg(1)->Arg(10);

// A compact APB-1-shaped schema (~170k fact rows at density 0.25), cheap
// enough to materialise once per benchmark instance — the sharded-scan
// benchmark needs a separate store per (shards, round_gap) point.
mdw::StarSchema MakeCompactApb1Schema() {
  mdw::Dimension product("product",
                         mdw::Hierarchy({{"division", 2},
                                         {"line", 6},
                                         {"family", 12},
                                         {"group", 48},
                                         {"class", 240},
                                         {"code", 480}}),
                         mdw::IndexKind::kEncoded);
  mdw::Dimension customer("customer",
                          mdw::Hierarchy({{"retailer", 6}, {"store", 60}}),
                          mdw::IndexKind::kEncoded);
  mdw::Dimension channel("channel", mdw::Hierarchy({{"channel", 2}}),
                         mdw::IndexKind::kSimple);
  mdw::Dimension time("time",
                      mdw::Hierarchy(
                          {{"year", 1}, {"quarter", 4}, {"month", 12}}),
                      mdw::IndexKind::kSimple);
  return mdw::StarSchema("compact_sales",
                         {std::move(product), std::move(customer),
                          std::move(channel), std::move(time)},
                         /*density=*/0.25, mdw::PhysicalParams{});
}

// Sharded scan with affinity scheduling + stealing: the heavy no-support
// query (every fragment processed under a bitmap filter) over a store
// declustered into shards {1, 2, 4, 8} by round robin with round_gap
// {0, 1}, at 4 workers throughout. Emits the skew metric (max/mean shard
// busy-work — deterministic, machine-independent) next to wall time so
// the CI perf gate tracks placement quality as well as speed.
void BM_MdhfShardedScan(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  mdw::AllocationConfig allocation;
  allocation.round_gap = static_cast<int>(state.range(1));
  const mdw::Warehouse wh(
      {.schema = MakeCompactApb1Schema(),
       .fragmentation = {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}},
       .backend = mdw::BackendKind::kMaterialized,
       .seed = 42,
       .num_workers = 4,
       .num_shards = shards,
       .allocation = allocation});
  const auto query = mdw::apb1_queries::OneStore(17);
  wh.Plan(query);  // warm the plan cache; the loop measures execution
  double skew = 0;
  std::int64_t rows_scanned = 0;
  for (auto _ : state) {
    const auto outcome = wh.Execute(query);
    skew = outcome.shard_skew;
    rows_scanned = outcome.rows_scanned;
    benchmark::DoNotOptimize(outcome.aggregate->rows);
  }
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["round_gap"] = static_cast<double>(allocation.round_gap);
  state.counters["skew"] = skew;
  state.counters["rows_scanned_per_query"] =
      static_cast<double>(rows_scanned);
}
BENCHMARK(BM_MdhfShardedScan)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->UseRealTime();

// File-backed execution through the buffer pool: the heavy no-support
// query (every fragment's range scanned under a bitmap filter) against
// page-aligned segment files, with the pool sized at {1/4x, 1x, 4x} the
// two measure columns' page working set (arg 0, percent) and the pool
// either reset before every iteration (arg 1 = 1, cold: every page
// faults from the segment files) or left warm (arg 1 = 0: steady state,
// pins served from cache where the pool is big enough). Execution is
// serial, so pages_read_per_query is deterministic and the CI perf gate
// can track it like rows_scanned. The segment files are written once
// into a temp directory shared (and byte-identically reused) by all six
// arg combinations, and removed at process exit.
void BM_MdhfPagedScan(benchmark::State& state) {
  struct TempStoreDir {
    std::string path;
    TempStoreDir() {
      std::string tmpl = (std::filesystem::temp_directory_path() /
                          "mdw_bench_paged_XXXXXX")
                             .string();
      std::vector<char> buf(tmpl.begin(), tmpl.end());
      buf.push_back('\0');
      path = ::mkdtemp(buf.data());
    }
    ~TempStoreDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const TempStoreDir dir;

  const std::int64_t pool_pct = state.range(0);
  const bool cold = state.range(1) != 0;

  // Size the pool relative to the scan working set: the pages of the two
  // measure columns (the only columns a clustered residual scan reads).
  // The logical FactCount is close enough to the sampled row count for a
  // sizing knob.
  const mdw::StarSchema schema = MakeCompactApb1Schema();
  const std::int64_t tuples_per_page = schema.physical().TuplesPerPage();
  const std::int64_t working_set =
      2 * ((schema.FactCount() + tuples_per_page - 1) / tuples_per_page);
  mdw::storage::StoreOptions options;
  options.path = dir.path;
  options.pool_pages = std::max<std::int64_t>(16, working_set * pool_pct / 100);

  const std::vector<mdw::FragAttr> attrs = {{mdw::kApb1Time, 2},
                                            {mdw::kApb1Product, 3}};
  mdw::MiniWarehouse mini(MakeCompactApb1Schema(), 42, attrs,
                          /*enable_summaries=*/true, /*num_shards=*/1, {},
                          options);
  const mdw::Fragmentation frag(&mini.schema(), attrs);
  const mdw::QueryPlanner planner(&mini.schema(), &frag);
  const auto query = mdw::apb1_queries::OneStore(17);
  const auto plan = planner.Plan(query);

  mdw::MiniWarehouse::MdhfExecution exec;
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      mini.mutable_paged_store()->pool().Reset();
      state.ResumeTiming();
    }
    exec = mini.ExecuteWithPlan(query, plan);
    benchmark::DoNotOptimize(exec.result.rows);
  }
  state.SetBytesProcessed(state.iterations() *
                          ScanColumnBytes(exec.rows_scanned,
                                          /*grouped=*/false));
  state.SetLabel(std::string(cold ? "cold" : "warm") + "/pool_" +
                 std::to_string(pool_pct) + "pct");
  state.counters["pool_pages"] = static_cast<double>(options.pool_pages);
  state.counters["working_set_pages"] = static_cast<double>(working_set);
  state.counters["pages_read_per_query"] =
      static_cast<double>(exec.pages_read);
  state.counters["buffer_hits_per_query"] =
      static_cast<double>(exec.buffer_hits);
  state.counters["rows_scanned_per_query"] =
      static_cast<double>(exec.rows_scanned);
  // Storage-health baseline: a healthy paged scan never retries a read
  // and never fails a page checksum, so these gate at zero in CI.
  state.counters["io_retries_per_query"] = static_cast<double>(exec.io_retries);
  state.counters["checksum_failures_per_query"] =
      static_cast<double>(exec.checksum_failures);
}
BENCHMARK(BM_MdhfPagedScan)->ArgsProduct({{25, 100, 400}, {1, 0}});

void BM_MdhfParallelScan(benchmark::State& state) {
  const auto& wh = MediumWarehouse();
  const mdw::MiniWarehouse& mini = *wh.materialized();
  const auto query = mdw::apb1_queries::OneStore(17);
  const auto plan = wh.Plan(query);
  const int workers = static_cast<int>(state.range(0));
  const auto pool = workers > 1
                        ? std::make_unique<mdw::ThreadPool>(workers - 1)
                        : nullptr;
  std::int64_t rows_scanned = 0;
  for (auto _ : state) {
    const auto exec = mini.ExecuteWithPlan(query, plan, pool.get());
    rows_scanned = exec.rows_scanned;
    benchmark::DoNotOptimize(exec.result.rows);
  }
  state.SetBytesProcessed(state.iterations() *
                          ScanColumnBytes(rows_scanned, /*grouped=*/false));
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["rows_scanned_per_query"] =
      static_cast<double>(rows_scanned);
}
BENCHMARK(BM_MdhfParallelScan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Open-loop multi-user serving through the scheduler front end: a
// Poisson/zipfian arrival trace (overloaded ~5x, so admission control and
// the dispatch policy both bite) served at 4 workers with a bounded
// queue. Args: streams {1, 16, 256} x policy {0 = FCFS, 1 = credit}.
// Wall time covers the virtual-time schedule plus the real replay of the
// served queries; the counters (p99 latency in virtual-time ticks,
// unfairness = 1 - Jain index over per-stream work, rejected count) are
// deterministic, so the CI perf gate tracks scheduling quality next to
// speed. "unfairness" rather than "jain" because the gate fails on
// counter GROWTH: fairness regressions must read as increases.
void BM_MultiUserServe(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  const auto policy = state.range(1) == 0 ? mdw::SchedPolicy::kFcfs
                                          : mdw::SchedPolicy::kCredit;
  const mdw::Warehouse wh(
      {.schema = MakeCompactApb1Schema(),
       .fragmentation = {{mdw::kApb1Time, 2}, {mdw::kApb1Product, 3}},
       .backend = mdw::BackendKind::kMaterialized,
       .seed = 42,
       .plan_cache_capacity = 4096,
       .num_workers = 4});

  mdw::ArrivalConfig gen;
  gen.num_streams = streams;
  gen.mean_interarrival_vt = 1000.0;
  gen.stream_skew_theta = 0.5;
  gen.mix = {mdw::QueryType::k1Month1Group, mdw::QueryType::k1Quarter};
  gen.seed = 42;
  const auto arrivals =
      mdw::ArrivalGenerator(&wh.schema(), gen).Generate(512);

  mdw::ServingConfig config;
  config.policy = policy;
  config.num_workers = 4;
  config.queue_capacity = 256;

  wh.Serve(arrivals, config);  // warm the plan cache; the loop measures
  double p99 = 0, unfairness = 0, rejected = 0;
  double deadline_missed = 0, degraded = 0, served = 1;
  for (auto _ : state) {
    const auto batch = wh.Serve(arrivals, config);
    p99 = batch.serving->total.p99_response_vt;
    unfairness = 1.0 - batch.serving->jain_fairness;
    rejected = static_cast<double>(batch.serving->total.rejected);
    deadline_missed = static_cast<double>(batch.serving->total.deadline_missed);
    degraded = static_cast<double>(batch.serving->total.degraded);
    served = std::max(1.0, static_cast<double>(batch.queries.size()));
    benchmark::DoNotOptimize(batch.total_aggregate->rows);
  }
  state.counters["streams"] = static_cast<double>(streams);
  state.counters["p99_response_vt"] = p99;
  state.counters["unfairness"] = unfairness;
  state.counters["rejected"] = rejected;
  // Zero-baseline tripwires: no deadline is configured here, so any
  // nonzero value means the deadline machinery leaked into the default
  // serving path (a correctness regression the perf gate should catch).
  state.counters["deadline_missed_per_query"] = deadline_missed / served;
  state.counters["degraded_per_query"] = degraded / served;
  // Horizon 0 drains the queue, so served = submitted - rejected.
  state.counters["queries_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          (static_cast<double>(arrivals.size()) - rejected),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MultiUserServe)
    ->ArgsProduct({{1, 16, 256}, {0, 1}})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
