// End-to-end deadline and cancellation tests: the cooperative token
// layer (exactness: a tripped token yields a typed status and no
// aggregate, an untripped one leaves results bit-identical), the
// deadline-aware virtual-time scheduler (provable admission rejection,
// queue-timeout shedding, degradation to covered-only, SRPT), and the
// serving path under wall-clock budgets and injected storage faults.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "core/mini_warehouse.h"
#include "core/warehouse.h"
#include "fragment/fragmentation.h"
#include "fragment/query_planner.h"
#include "fragment/star_query.h"
#include "schema/apb1.h"
#include "sched/query_scheduler.h"
#include "storage/io_fault.h"
#include "workload/arrival_generator.h"

namespace mdw {
namespace {

constexpr std::uint64_t kSeed = 42;

std::vector<FragAttr> MonthGroup() {
  return {{kApb1Time, 2}, {kApb1Product, 3}};
}

Warehouse TinyMaterialized(int workers, int shards = 1) {
  return Warehouse({.schema = MakeTinyApb1Schema(),
                    .fragmentation = MonthGroup(),
                    .backend = BackendKind::kMaterialized,
                    .seed = kSeed,
                    .num_workers = workers,
                    .num_shards = shards});
}

class TempDir {
 public:
  TempDir() {
    const char* base = std::getenv("TEST_TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/mdw_deadline_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* got = ::mkdtemp(buf.data());
    EXPECT_NE(got, nullptr);
    path_ = got != nullptr ? got : tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Token semantics

TEST(CancellationTest, TokenStatesAndStatuses) {
  const CancellationToken unarmed;
  EXPECT_FALSE(unarmed.armed());
  EXPECT_FALSE(unarmed.ShouldStop());
  EXPECT_TRUE(unarmed.CancelStatus().ok());
  unarmed.Cancel();  // no-op, must not crash
  EXPECT_FALSE(unarmed.ShouldStop());

  const CancellationToken manual = CancellationToken::Manual();
  EXPECT_TRUE(manual.armed());
  EXPECT_FALSE(manual.ShouldStop());
  manual.Cancel();
  EXPECT_TRUE(manual.ShouldStop());
  EXPECT_EQ(manual.CancelStatus().code(), StatusCode::kCancelled);
  EXPECT_EQ(manual.RemainingMicros(), 0);

  const DeadlineClock clock = DeadlineClock::Virtual();
  const CancellationToken deadline =
      CancellationToken::WithDeadlineMicros(100, clock);
  EXPECT_FALSE(deadline.ShouldStop());
  EXPECT_EQ(deadline.RemainingMicros(), 100);
  clock.AdvanceMicros(99);
  EXPECT_FALSE(deadline.ShouldStop());
  clock.AdvanceMicros(1);
  EXPECT_TRUE(deadline.ShouldStop());
  EXPECT_EQ(deadline.CancelStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.RemainingMicros(), 0);

  // Explicit cancel wins over an expired deadline.
  const DeadlineClock clock2 = DeadlineClock::Virtual();
  const CancellationToken both =
      CancellationToken::WithDeadlineMicros(10, clock2);
  clock2.AdvanceMicros(20);
  both.Cancel();
  EXPECT_EQ(both.CancelStatus().code(), StatusCode::kCancelled);
}

TEST(CancellationTest, LinkedChildTripsWithParent) {
  const CancellationToken parent = CancellationToken::Manual();
  const DeadlineClock clock = DeadlineClock::Virtual();
  const CancellationToken child =
      CancellationToken::WithDeadlineMicros(1000, clock, parent);
  EXPECT_FALSE(child.ShouldStop());
  parent.Cancel();
  EXPECT_TRUE(child.ShouldStop());
  EXPECT_EQ(child.CancelStatus().code(), StatusCode::kCancelled);
  EXPECT_EQ(child.RemainingMicros(), 0);
  // The child never propagates up.
  const CancellationToken parent2 = CancellationToken::Manual();
  const CancellationToken child2 =
      CancellationToken::WithDeadlineMicros(0, clock, parent2);
  EXPECT_TRUE(child2.ShouldStop());
  EXPECT_EQ(child2.CancelStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(parent2.ShouldStop());
}

// ---------------------------------------------------------------------------
// Execution-layer exactness: tripped => typed status and no aggregate;
// untripped => bit-identical to the option-less execution. Checked across
// worker and shard counts.

std::vector<StarQuery> ExactnessSweep() {
  std::vector<StarQuery> queries;
  queries.push_back(apb1_queries::OneMonthOneGroup(3, 7));
  queries.push_back(apb1_queries::OneMonth(5));
  queries.push_back(apb1_queries::OneCodeOneMonth(30, 3));
  queries.push_back(apb1_queries::OneStore(17));
  queries.push_back(StarQuery("COVERED_PLUS_RESIDUAL",
                              {{kApb1Product, 5, {28, 29, 30, 31, 32}}}));
  return queries;
}

TEST(DeadlineExecutionTest, TrippedTokenYieldsTypedStatusNeverAnAggregate) {
  for (const int shards : {1, 4}) {
    const Warehouse wh = TinyMaterialized(1, shards);
    const MiniWarehouse* mini = wh.materialized();
    for (const int workers : {1, 2, 8}) {
      const ThreadPool pool(workers);
      for (const StarQuery& query : ExactnessSweep()) {
        const QueryPlan plan = wh.Plan(query);
        MiniWarehouse::ExecOptions options;
        options.cancel = CancellationToken::Manual();
        options.cancel.Cancel();
        const auto exec = mini->ExecuteWithPlan(query, plan, &pool,
                                                /*scratch=*/nullptr, options);
        EXPECT_EQ(exec.status.code(), StatusCode::kCancelled)
            << query.name() << " workers=" << workers
            << " shards=" << shards;
      }
    }
  }
}

TEST(DeadlineExecutionTest, UntrippedTokenLeavesResultsBitIdentical) {
  for (const int shards : {1, 4}) {
    const Warehouse wh = TinyMaterialized(1, shards);
    const MiniWarehouse* mini = wh.materialized();
    for (const StarQuery& query : ExactnessSweep()) {
      const QueryPlan plan = wh.Plan(query);
      const auto plain = mini->ExecuteWithPlan(query, plan);
      for (const int workers : {1, 2, 8}) {
        const ThreadPool pool(workers);
        // Armed with a generous deadline AND a live manual token: never
        // trips, so the record must match the plain run field for field.
        MiniWarehouse::ExecOptions options;
        options.cancel = CancellationToken::WithTimeoutMicros(
            std::int64_t{3'600'000'000}, {}, CancellationToken::Manual());
        const auto guarded = mini->ExecuteWithPlan(
            query, plan, &pool, /*scratch=*/nullptr, options);
        EXPECT_EQ(guarded, plain)
            << query.name() << " workers=" << workers << " shards=" << shards;
      }
    }
  }
}

TEST(DeadlineExecutionTest, ExpiredVirtualDeadlineIsDeadlineExceeded) {
  const Warehouse wh = TinyMaterialized(1);
  const StarQuery query = apb1_queries::OneMonth(5);
  const QueryPlan plan = wh.Plan(query);
  const DeadlineClock clock = DeadlineClock::Virtual();
  MiniWarehouse::ExecOptions options;
  options.cancel = CancellationToken::WithDeadlineMicros(50, clock);
  clock.AdvanceMicros(50);
  const auto exec = wh.materialized()->ExecuteWithPlan(
      query, plan, nullptr, nullptr, options);
  EXPECT_EQ(exec.status.code(), StatusCode::kDeadlineExceeded);
}

// Mid-scan cancellation from another thread: every outcome is either the
// exact fault-free answer (token lost the race) or a typed kCancelled
// with no usable aggregate — never a partial sum. Runs under TSan in CI.
TEST(DeadlineExecutionTest, MidScanCancellationStressNeverYieldsPartialSums) {
  const Warehouse wh = TinyMaterialized(8, 4);
  const MiniWarehouse* mini = wh.materialized();
  const StarQuery query = apb1_queries::OneMonth(5);
  const QueryPlan plan = wh.Plan(query);
  const auto truth = mini->ExecuteWithPlan(query, plan);
  ASSERT_TRUE(truth.status.ok());

  const ThreadPool pool(8);
  int cancelled = 0;
  for (int i = 0; i < 40; ++i) {
    MiniWarehouse::ExecOptions options;
    options.cancel = CancellationToken::Manual();
    // Every 5th iteration trips before execution starts (a guaranteed
    // cancellation); the rest race a canceller thread against the scan.
    if (i % 5 == 0) options.cancel.Cancel();
    std::thread canceller([&options, i] {
      std::this_thread::sleep_for(std::chrono::microseconds(i * 7));
      options.cancel.Cancel();
    });
    const auto exec =
        mini->ExecuteWithPlan(query, plan, &pool, nullptr, options);
    canceller.join();
    if (exec.status.ok()) {
      EXPECT_EQ(exec.result, truth.result) << "iteration " << i;
    } else {
      EXPECT_EQ(exec.status.code(), StatusCode::kCancelled) << "iter " << i;
      ++cancelled;
    }
  }
  // The sweep spans cancel-before-start through cancel-after-finish, so
  // at least the immediate cancellations must have tripped.
  EXPECT_GT(cancelled, 0);
}

// ---------------------------------------------------------------------------
// Degraded covered-only execution

TEST(DegradedExecutionTest, DegradedAnswerEqualsCoveredOnlyGroundTruth) {
  // COVERED_PLUS_RESIDUAL selects group 7 fully (codes 28..31) and group
  // 8 partially (code 32): its covered fragments are exactly the rows of
  // group 7, i.e. the full answer of the all-codes-of-group-7 query.
  const StarQuery mixed("COVERED_PLUS_RESIDUAL",
                        {{kApb1Product, 5, {28, 29, 30, 31, 32}}});
  const StarQuery covered_part("ALL_CODES_OF_GROUP",
                               {{kApb1Product, 5, {28, 29, 30, 31}}});
  for (const int shards : {1, 4}) {
    const Warehouse wh = TinyMaterialized(2, shards);
    const MiniWarehouse* mini = wh.materialized();
    const auto reference = mini->ExecuteFullScan(covered_part);
    for (const int workers : {1, 2, 8}) {
      const ThreadPool pool(workers);
      MiniWarehouse::ExecOptions options;
      options.covered_only = true;
      const auto degraded = mini->ExecuteWithPlan(mixed, wh.Plan(mixed),
                                                  &pool, nullptr, options);
      ASSERT_TRUE(degraded.status.ok());
      EXPECT_TRUE(degraded.degraded);
      EXPECT_EQ(degraded.result, reference)
          << "workers=" << workers << " shards=" << shards;
      EXPECT_EQ(degraded.rows_scanned, 0);
      EXPECT_EQ(degraded.result.rows, degraded.rows_summarized);
    }
  }
}

TEST(DegradedExecutionTest, FullyCoveredQueryDegradesToTheExactAnswer) {
  const Warehouse wh = TinyMaterialized(2);
  const MiniWarehouse* mini = wh.materialized();
  const StarQuery query = apb1_queries::OneMonthOneGroup(3, 7);
  const QueryPlan plan = wh.Plan(query);
  ASSERT_EQ(plan.CoveredFragmentCount(), plan.FragmentCount());
  const auto full = mini->ExecuteWithPlan(query, plan);
  MiniWarehouse::ExecOptions options;
  options.covered_only = true;
  const auto degraded =
      mini->ExecuteWithPlan(query, plan, nullptr, nullptr, options);
  ASSERT_TRUE(degraded.status.ok());
  EXPECT_EQ(degraded.result, full.result);
  EXPECT_EQ(degraded.rows_scanned, 0);
}

// ---------------------------------------------------------------------------
// Virtual-time scheduler: deadline admission, shedding, degradation, SRPT

Arrival At(std::int64_t vt, int stream) {
  return Arrival{vt, stream, StarQuery("synthetic", {})};
}

ServingConfig Config(SchedPolicy policy, int workers) {
  ServingConfig config;
  config.policy = policy;
  config.num_workers = workers;
  return config;
}

TEST(DeadlineSchedulerTest, FcfsAdmissionRejectsProvablyInfeasibleArrivals) {
  // One server, demand 100, relative deadline 150: the backlog makes
  // every same-instant arrival after the first provably late, so FCFS
  // rejects them on the spot. A later arrival at a free server is fine.
  const std::vector<Arrival> arrivals = {At(0, 0), At(0, 0), At(0, 0),
                                         At(0, 0), At(100, 0)};
  const std::vector<std::int64_t> demands(arrivals.size(), 100);
  ServingConfig config = Config(SchedPolicy::kFcfs, 1);
  config.deadline_vt = 150;
  const ServeSchedule schedule =
      QueryScheduler(config).Run(arrivals, demands);

  ASSERT_EQ(schedule.rejected.size(), 3u);
  EXPECT_EQ(schedule.rejected, (std::vector<std::int64_t>{1, 2, 3}));
  ASSERT_EQ(schedule.admitted.size(), 2u);
  EXPECT_TRUE(schedule.admitted[0].served);
  EXPECT_EQ(schedule.admitted[0].deadline_vt, 150);
  EXPECT_TRUE(schedule.admitted[1].served);
  EXPECT_EQ(schedule.admitted[1].dispatch_vt, 100);
  EXPECT_EQ(schedule.ShedExpiredCount(), 0);
  // Every dispatched query met its deadline in virtual time.
  for (const auto& q : schedule.admitted) {
    EXPECT_LE(q.completion_vt, q.deadline_vt);
  }
}

TEST(DeadlineSchedulerTest, ExpiredWaitingQueriesAreShedNotDispatched) {
  // Credit admission only rejects what can't fit even with zero wait, so
  // the backlog queues — and the queue-timeout pass sheds it once the
  // deadline becomes unreachable, before any dispatch.
  const std::vector<Arrival> arrivals = {At(0, 0), At(0, 0), At(0, 0)};
  const std::vector<std::int64_t> demands(arrivals.size(), 100);
  ServingConfig config = Config(SchedPolicy::kCredit, 1);
  config.deadline_vt = 150;
  const ServeSchedule schedule =
      QueryScheduler(config).Run(arrivals, demands);

  ASSERT_EQ(schedule.admitted.size(), 3u);
  EXPECT_TRUE(schedule.rejected.empty());
  EXPECT_EQ(schedule.ServedCount(), 1);
  EXPECT_EQ(schedule.ShedExpiredCount(), 2);
  for (const auto& q : schedule.admitted) {
    if (q.served) {
      EXPECT_LE(q.completion_vt, q.deadline_vt);
    }
    if (q.shed_expired) {
      EXPECT_FALSE(q.served);
    }
  }

  const ServeMetrics metrics =
      ComputeServeMetrics(schedule, arrivals, config);
  EXPECT_EQ(metrics.total.shed_expired, 2);
  EXPECT_EQ(metrics.total.deadline_missed, 2);
  EXPECT_EQ(metrics.total.completed, 1);
}

TEST(DeadlineSchedulerTest, DegradePolicyRescuesExpiringQueries) {
  // Same overload, but the stream opts into degradation and the covered
  // demand (10) still fits: the queued queries downgrade instead of
  // shedding and all three complete by their deadlines.
  const std::vector<Arrival> arrivals = {At(0, 0), At(0, 0), At(0, 0)};
  const std::vector<std::int64_t> demands(arrivals.size(), 100);
  const std::vector<std::int64_t> covered(arrivals.size(), 10);
  ServingConfig config = Config(SchedPolicy::kCredit, 1);
  config.deadline_vt = 150;
  config.overload = OverloadPolicy::kDegrade;
  const ServeSchedule schedule =
      QueryScheduler(config).Run(arrivals, demands, covered);

  ASSERT_EQ(schedule.admitted.size(), 3u);
  EXPECT_EQ(schedule.ServedCount(), 3);
  EXPECT_EQ(schedule.ShedExpiredCount(), 0);
  EXPECT_EQ(schedule.DegradedCount(), 2);
  EXPECT_FALSE(schedule.admitted[0].degraded);  // ran at full demand
  for (const auto& q : schedule.admitted) {
    EXPECT_LE(q.completion_vt, q.deadline_vt);
    if (q.degraded) {
      EXPECT_EQ(q.demand, 10);
    }
  }
  const ServeMetrics metrics =
      ComputeServeMetrics(schedule, arrivals, config);
  EXPECT_EQ(metrics.total.degraded, 2);
  EXPECT_EQ(metrics.total.deadline_missed, 0);
}

TEST(DeadlineSchedulerTest, SrptDispatchesShortestDemandFirst) {
  std::vector<Arrival> arrivals;
  std::vector<std::int64_t> demands;
  const std::vector<std::int64_t> shuffled = {70, 10, 50, 30, 90, 20};
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    arrivals.push_back(At(0, static_cast<int>(i % 2)));
    demands.push_back(shuffled[i]);
  }
  const QueryScheduler scheduler(Config(SchedPolicy::kSrpt, 1));
  const ServeSchedule schedule = scheduler.Run(arrivals, demands);
  ASSERT_EQ(schedule.ServedCount(), 6);
  // The first query grabs the free server on arrival (work conserving);
  // after that, dispatch follows ascending demand.
  std::vector<std::pair<std::int64_t, std::int64_t>> order;
  for (const auto& q : schedule.admitted) {
    order.emplace_back(q.dispatch_seq, q.demand);
  }
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order[0].second, 70);  // was already in service
  for (std::size_t i = 2; i < order.size(); ++i) {
    EXPECT_GE(order[i].second, order[i - 1].second);
  }
}

TEST(DeadlineSchedulerTest, SrptBeatsFcfsOnMeanResponseUnderSkewedDemands) {
  std::vector<Arrival> arrivals;
  std::vector<std::int64_t> demands;
  for (int i = 0; i < 40; ++i) {
    arrivals.push_back(At(0, 0));
    demands.push_back(i % 2 == 0 ? 500 : 10);  // heavy/light skew
  }
  const auto mean_response = [&](SchedPolicy policy) {
    ServingConfig config = Config(policy, 1);
    const ServeSchedule schedule =
        QueryScheduler(config).Run(arrivals, demands);
    EXPECT_EQ(schedule.ServedCount(), 40);
    const ServeMetrics m = ComputeServeMetrics(schedule, arrivals, config);
    return m.total.mean_queue_wait_vt + m.total.mean_service_vt;
  };
  const double fcfs = mean_response(SchedPolicy::kFcfs);
  const double srpt = mean_response(SchedPolicy::kSrpt);
  EXPECT_LT(srpt, fcfs * 0.7)
      << "SRPT should sharply cut mean response under skew";
}

TEST(DeadlineSchedulerTest, DeterministicReplayWithDeadlinesAndSrpt) {
  std::vector<Arrival> arrivals;
  std::vector<std::int64_t> demands;
  std::vector<std::int64_t> covered;
  std::int64_t vt = 0;
  for (int i = 0; i < 200; ++i) {
    vt += (i * 7) % 23;
    arrivals.push_back(At(vt, i % 5));
    demands.push_back(1 + (i * 13) % 97);
    covered.push_back(1 + (i * 13) % 97 / 4);
  }
  ServingConfig config = Config(SchedPolicy::kSrpt, 3);
  config.deadline_vt = 120;
  config.stream_overload = {OverloadPolicy::kShed, OverloadPolicy::kDegrade,
                            OverloadPolicy::kShed, OverloadPolicy::kDegrade,
                            OverloadPolicy::kShed};
  const QueryScheduler scheduler(config);
  const ServeSchedule a = scheduler.Run(arrivals, demands, covered);
  const ServeSchedule b = scheduler.Run(arrivals, demands, covered);
  ASSERT_EQ(a.admitted.size(), b.admitted.size());
  for (std::size_t i = 0; i < a.admitted.size(); ++i) {
    EXPECT_EQ(a.admitted[i].served, b.admitted[i].served);
    EXPECT_EQ(a.admitted[i].dispatch_seq, b.admitted[i].dispatch_seq);
    EXPECT_EQ(a.admitted[i].shed_expired, b.admitted[i].shed_expired);
    EXPECT_EQ(a.admitted[i].degraded, b.admitted[i].degraded);
    EXPECT_EQ(a.admitted[i].demand, b.admitted[i].demand);
  }
  EXPECT_EQ(a.rejected, b.rejected);
  // Sanity: the trace is overloaded enough that every deadline path ran.
  EXPECT_GT(a.ShedExpiredCount() + static_cast<std::int64_t>(
                                       a.rejected.size()),
            0);
}

// ---------------------------------------------------------------------------
// Serving end to end: deterministic outcome sets at any worker/shard
// count, wall-clock budgets, requeue-skip, serve-wide cancellation.

std::vector<Arrival> TinyTrace(const StarSchema* schema, int count) {
  ArrivalConfig config;
  config.num_streams = 6;
  config.mean_interarrival_vt = 40.0;
  config.stream_skew_theta = 0.4;
  config.mix = {QueryType::k1Month1Group, QueryType::k1Month,
                QueryType::k1Quarter, QueryType::k1Group1Store};
  config.seed = kSeed;
  return ArrivalGenerator(schema, config).Generate(count);
}

TEST(DeadlineServingTest, OutcomeSetsDeterministicAcrossWorkersAndShards) {
  // The acceptance bar: with virtual-time deadlines the partition of
  // arrivals into {completed, rejected, shed, degraded} — and every
  // aggregate — is identical no matter how many threads or shards
  // actually execute.
  ServingConfig config;
  config.policy = SchedPolicy::kSrpt;
  config.num_workers = 2;  // pinned: the schedule must not vary
  config.deadline_vt = 400;
  config.stream_overload = {OverloadPolicy::kShed, OverloadPolicy::kDegrade,
                            OverloadPolicy::kShed, OverloadPolicy::kDegrade,
                            OverloadPolicy::kShed, OverloadPolicy::kDegrade};

  struct RunSets {
    std::set<std::int64_t> completed, rejected, shed, degraded;
    std::vector<std::pair<StatusCode,
                          std::optional<MiniWarehouse::AggregateResult>>>
        outcomes;
  };
  std::vector<RunSets> runs;
  for (const int shards : {1, 4}) {
    for (const int workers : {1, 2, 8}) {
      const Warehouse wh = TinyMaterialized(workers, shards);
      const auto arrivals = TinyTrace(&wh.schema(), 96);
      ServeSchedule schedule;
      const BatchOutcome batch = wh.Serve(arrivals, config, &schedule);
      RunSets sets;
      for (const auto& q : schedule.admitted) {
        if (q.served) sets.completed.insert(q.arrival_index);
        if (q.shed_expired) sets.shed.insert(q.arrival_index);
        if (q.degraded && q.served) sets.degraded.insert(q.arrival_index);
      }
      sets.rejected.insert(schedule.rejected.begin(),
                           schedule.rejected.end());
      for (const auto& out : batch.queries) {
        sets.outcomes.emplace_back(out.status.code(), out.aggregate);
        EXPECT_TRUE(out.status.ok());
      }
      ASSERT_TRUE(batch.serving.has_value());
      EXPECT_EQ(batch.serving->total.degraded,
                static_cast<std::int64_t>(sets.degraded.size()));
      EXPECT_EQ(batch.serving->total.shed_expired,
                static_cast<std::int64_t>(sets.shed.size()));
      runs.push_back(std::move(sets));
    }
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].completed, runs[i].completed);
    EXPECT_EQ(runs[0].rejected, runs[i].rejected);
    EXPECT_EQ(runs[0].shed, runs[i].shed);
    EXPECT_EQ(runs[0].degraded, runs[i].degraded);
    ASSERT_EQ(runs[0].outcomes.size(), runs[i].outcomes.size());
    for (std::size_t k = 0; k < runs[0].outcomes.size(); ++k) {
      EXPECT_EQ(runs[0].outcomes[k], runs[i].outcomes[k]) << "outcome " << k;
    }
  }
  // The config must actually exercise the deadline machinery.
  EXPECT_FALSE(runs[0].rejected.empty() && runs[0].shed.empty() &&
               runs[0].degraded.empty())
      << "trace too light: no deadline path engaged";
}

TEST(DeadlineServingTest, DegradedServeOutcomesMatchDirectCoveredExecution) {
  ServingConfig config;
  config.policy = SchedPolicy::kCredit;
  config.num_workers = 1;
  config.deadline_vt = 300;
  config.overload = OverloadPolicy::kDegrade;

  const Warehouse wh = TinyMaterialized(2);
  const auto arrivals = TinyTrace(&wh.schema(), 96);
  ServeSchedule schedule;
  const BatchOutcome batch = wh.Serve(arrivals, config, &schedule);
  std::size_t slot = 0;
  std::int64_t degraded_seen = 0;
  for (const auto& q : schedule.admitted) {
    if (!q.served) continue;
    const auto& out = batch.queries[slot++];
    EXPECT_EQ(out.degraded, q.degraded);
    if (!q.degraded) continue;
    ++degraded_seen;
    // A degraded outcome equals a direct covered-only execution of the
    // same plan — answered purely from summaries, nothing scanned.
    const auto& arrival = arrivals[static_cast<std::size_t>(q.arrival_index)];
    MiniWarehouse::ExecOptions options;
    options.covered_only = true;
    const auto direct = wh.materialized()->ExecuteWithPlan(
        arrival.query, wh.Plan(arrival.query), nullptr, nullptr, options);
    ASSERT_TRUE(out.aggregate.has_value());
    EXPECT_EQ(*out.aggregate, direct.result);
    EXPECT_EQ(out.rows_scanned, 0);
  }
  EXPECT_GT(degraded_seen, 0) << "trace too light to trigger degradation";
}

TEST(DeadlineServingTest, ServeWideCancellationYieldsTypedOutcomes) {
  ServingConfig config;
  config.policy = SchedPolicy::kFcfs;
  config.num_workers = 2;
  config.cancel = CancellationToken::Manual();
  config.cancel.Cancel();  // tripped before anything runs

  const Warehouse wh = TinyMaterialized(2);
  const auto arrivals = TinyTrace(&wh.schema(), 24);
  const BatchOutcome batch = wh.Serve(arrivals, config);
  ASSERT_FALSE(batch.queries.empty());
  for (const auto& out : batch.queries) {
    EXPECT_EQ(out.status.code(), StatusCode::kCancelled);
    EXPECT_FALSE(out.aggregate.has_value());
  }
  ASSERT_TRUE(batch.serving.has_value());
  EXPECT_EQ(batch.serving->total.cancelled,
            static_cast<std::int64_t>(batch.queries.size()));
  EXPECT_EQ(batch.serving->total.failed, 0);
}

// ---------------------------------------------------------------------------
// Wall-clock budgets under injected storage faults (the chaos leg)

TEST(DeadlineStorageTest, DeadlineCapsRetryBackoffSleeps) {
  // Sticky EIO on every page read with a 50ms backoff, but only a 10ms
  // budget: the capped sleeps and the requeue skip turn what would be
  // ~seconds of retrying into a prompt typed kDeadlineExceeded.
  TempDir dir;
  storage::FaultPlan plan;
  plan.scripted.push_back({/*file_id=*/-1, /*page=*/-1,
                           storage::FaultKind::kEio, /*count=*/-1});
  WarehouseConfig cfg{.schema = MakeTinyApb1Schema()};
  cfg.fragmentation = MonthGroup();
  cfg.backend = BackendKind::kMaterialized;
  cfg.seed = kSeed;
  cfg.num_workers = 1;
  cfg.storage_path = dir.path();
  cfg.storage_retry = {.max_attempts = 3, .backoff_us = 50'000};
  cfg.storage_fault = std::move(plan);
  const Warehouse wh(std::move(cfg));

  ServingConfig config;
  config.policy = SchedPolicy::kFcfs;
  config.num_workers = 1;
  config.exec_deadline_us = 10'000;
  config.max_requeues = 8;

  std::vector<Arrival> arrivals;
  for (int i = 0; i < 3; ++i) {
    arrivals.push_back({i * 10, 0, apb1_queries::OneMonth(i)});
  }
  const auto start = std::chrono::steady_clock::now();
  const BatchOutcome batch = wh.Serve(arrivals, config);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  // 3 queries x 8 requeues x 2 retries x 50ms would be ~2.4s of sleeping
  // without the cap; with it each query dies within its ~10ms budget.
  EXPECT_LT(elapsed, 1500) << "deadline did not cap the retry backoff";
  ASSERT_EQ(batch.queries.size(), 3u);
  for (const auto& out : batch.queries) {
    EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(out.aggregate.has_value());
  }
  ASSERT_TRUE(batch.serving.has_value());
  EXPECT_EQ(batch.serving->total.deadline_missed, 3);
  EXPECT_EQ(batch.serving->total.failed, 0);
}

TEST(DeadlineStorageTest, FaultySurvivorsStayExactUnderDeadlines) {
  // Chaos composition: transient faults plus a roomy wall budget — every
  // outcome is either the exact fault-free answer or a typed error;
  // never a wrong aggregate.
  TempDir clean_dir;
  WarehouseConfig clean_cfg{.schema = MakeTinyApb1Schema()};
  clean_cfg.fragmentation = MonthGroup();
  clean_cfg.backend = BackendKind::kMaterialized;
  clean_cfg.seed = kSeed;
  clean_cfg.num_workers = 1;
  clean_cfg.storage_path = clean_dir.path();
  const Warehouse clean(std::move(clean_cfg));

  TempDir dir;
  storage::FaultPlan plan;
  plan.seed = 0xC0FFEE;
  plan.eio_rate = 0.05;
  plan.corrupt_rate = 0.05;
  WarehouseConfig cfg{.schema = MakeTinyApb1Schema()};
  cfg.fragmentation = MonthGroup();
  cfg.backend = BackendKind::kMaterialized;
  cfg.seed = kSeed;
  cfg.num_workers = 2;
  cfg.storage_path = dir.path();
  cfg.storage_retry = {.max_attempts = 4, .backoff_us = 10};
  cfg.storage_fault = std::move(plan);
  const Warehouse faulty(std::move(cfg));

  ServingConfig config;
  config.policy = SchedPolicy::kCredit;
  config.num_workers = 2;
  config.exec_deadline_us = 5'000'000;
  config.max_requeues = 2;

  const auto arrivals = TinyTrace(&faulty.schema(), 48);
  ServeSchedule schedule;
  const BatchOutcome batch = faulty.Serve(arrivals, config, &schedule);
  std::size_t slot = 0;
  for (const auto& q : schedule.admitted) {
    if (!q.served) continue;
    const auto& out = batch.queries[slot++];
    const auto& arrival = arrivals[static_cast<std::size_t>(q.arrival_index)];
    if (out.status.ok()) {
      const QueryOutcome truth = clean.Execute(arrival.query);
      ASSERT_TRUE(out.aggregate.has_value());
      EXPECT_EQ(*out.aggregate, *truth.aggregate);
    } else {
      EXPECT_FALSE(out.aggregate.has_value());
    }
  }
}

}  // namespace
}  // namespace mdw
