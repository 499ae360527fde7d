// The attempt layer's contract: with injected failures and stragglers,
// every job and every MapReduce join plan produces outputs and counters
// byte-identical to a failure-free run; speculation commits the backup
// attempt of a straggling task; an exhausted attempt budget surfaces the
// task's original error.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include "common/sync.h"

#include "observability/stopwatch.h"

#include "dataset/generators.h"
#include "mapreduce/job.h"
#include "mrjoin/mrha.h"
#include "mrjoin/pgbj.h"
#include "mrjoin/pmh.h"

namespace hamming::mr {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// A word-count job over a few splits: the workhorse spec the attempt
// tests perturb with injectors.
JobSpec WordCountSpec() {
  JobSpec spec;
  spec.name = "wordcount";
  spec.input_splits = {
      {{{}, Bytes("ha")}, {{}, Bytes("index")}, {{}, Bytes("ha")}},
      {{{}, Bytes("gray")}, {{}, Bytes("ha")}, {{}, Bytes("pivot")}},
      {{{}, Bytes("index")}, {{}, Bytes("gray")}},
      {{{}, Bytes("pivot")}, {{}, Bytes("ha")}, {{}, Bytes("index")}},
  };
  spec.map_fn = [](const Record& rec, Emitter* out) -> Status {
    out->Emit(rec.value, Bytes("1"));
    return Status::OK();
  };
  spec.reduce_fn = [](const std::vector<uint8_t>& key,
                      const std::vector<std::vector<uint8_t>>& values,
                      Emitter* out) -> Status {
    out->Emit(key, Bytes(std::to_string(values.size())));
    return Status::OK();
  };
  spec.options.num_reducers = 3;
  return spec;
}

testing::AssertionResult OutputsEqual(
    const std::vector<std::vector<Record>>& a,
    const std::vector<std::vector<Record>>& b) {
  if (a.size() != b.size()) {
    return testing::AssertionFailure()
           << "partition counts differ: " << a.size() << " vs " << b.size();
  }
  for (std::size_t p = 0; p < a.size(); ++p) {
    if (a[p].size() != b[p].size()) {
      return testing::AssertionFailure() << "partition " << p << " sizes: "
                                         << a[p].size() << " vs "
                                         << b[p].size();
    }
    for (std::size_t i = 0; i < a[p].size(); ++i) {
      if (a[p][i].key != b[p][i].key || a[p][i].value != b[p][i].value) {
        return testing::AssertionFailure()
               << "partition " << p << " record " << i << " differs";
      }
    }
  }
  return testing::AssertionSuccess();
}

// Aggressive-but-recoverable fault regime: every attempt fails with
// probability 0.2 and straggles with probability 0.1, under a generous
// retry budget and speculation. (0.2^8 per task ~ 3e-6 residual risk.)
ExecutionOptions FaultyExec(uint64_t seed) {
  ExecutionOptions exec;
  exec.max_attempts = 8;
  exec.speculation.enabled = true;
  exec.speculation.slow_attempt_seconds = 0.05;
  RandomFaultOptions f;
  f.failure_probability = 0.2;
  f.straggler_probability = 0.1;
  f.straggler_delay_seconds = 0.1;
  f.seed = seed;
  exec.fault = std::make_shared<RandomFaultInjector>(f);
  return exec;
}

TEST(FaultToleranceTest, InjectedFailuresLeaveOutputByteIdentical) {
  Cluster clean_cluster({4, 2, 4});
  JobSpec clean = WordCountSpec();
  auto clean_result = RunJob(clean, &clean_cluster);
  ASSERT_TRUE(clean_result.ok()) << clean_result.status();

  // Several fault seeds: identity must hold whatever the schedule, and
  // across the sweep at least one attempt must actually have failed
  // (seeds are fixed, so this is deterministic).
  int64_t total_failures = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Cluster faulty_cluster({4, 2, 4});
    JobSpec faulty = WordCountSpec();
    faulty.options = FaultyExec(seed);
    faulty.options.num_reducers = clean.options.num_reducers;
    auto faulty_result = RunJob(faulty, &faulty_cluster);
    ASSERT_TRUE(faulty_result.ok()) << faulty_result.status();

    EXPECT_TRUE(OutputsEqual(clean_result->outputs, faulty_result->outputs))
        << "seed " << seed;
    EXPECT_EQ(clean_result->counters.Snapshot(),
              faulty_result->counters.Snapshot())
        << "seed " << seed;
    EXPECT_EQ(clean_cluster.cumulative_counters()->Snapshot(),
              faulty_cluster.cumulative_counters()->Snapshot())
        << "seed " << seed;
    total_failures += faulty_result->trace.Count(JobEventType::kAttemptFail);
  }
  EXPECT_GT(total_failures, 0);
}

TEST(FaultToleranceTest, RetriesRecoverFromTargetedFailures) {
  Cluster cluster({4, 2, 4});
  JobSpec spec = WordCountSpec();
  spec.options.max_attempts = 3;
  spec.options.fault = std::make_shared<TargetedFaultInjector>(
      std::vector<TargetedFault>{
          {TaskKind::kMap, 1, /*fail_first_attempts=*/2, 0.0},
          {TaskKind::kReduce, 0, /*fail_first_attempts=*/1, 0.0},
      });
  auto result = RunJob(spec, &cluster);
  ASSERT_TRUE(result.ok()) << result.status();

  Cluster clean_cluster({4, 2, 4});
  auto clean = RunJob(WordCountSpec(), &clean_cluster);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(OutputsEqual(clean->outputs, result->outputs));
  EXPECT_EQ(clean->counters.Snapshot(), result->counters.Snapshot());

  AttemptStats stats = result->trace.Stats();
  EXPECT_EQ(stats.failed, 3);  // two map failures + one reduce failure
  // Every task eventually committed exactly once.
  EXPECT_EQ(stats.finished, 4 + 3);  // 4 map tasks, 3 reduce tasks
}

TEST(FaultToleranceTest, FailureOnEmptySplitIsRetriedToo) {
  Cluster cluster({4, 2, 4});
  JobSpec spec = WordCountSpec();
  spec.input_splits.push_back({});  // task 4: empty split
  spec.options.max_attempts = 2;
  spec.options.fault = std::make_shared<TargetedFaultInjector>(
      std::vector<TargetedFault>{{TaskKind::kMap, 4, 1, 0.0}});
  auto result = RunJob(spec, &cluster);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->trace.Stats().failed, 1);
}

TEST(FaultToleranceTest, ExhaustedBudgetSurfacesOriginalTaskError) {
  Cluster cluster({4, 2, 4});
  JobSpec spec = WordCountSpec();
  spec.options.max_attempts = 3;
  spec.options.fault = std::make_shared<TargetedFaultInjector>(
      std::vector<TargetedFault>{{TaskKind::kMap, 2, /*fail_first=*/3, 0.0}});
  auto result = RunJob(spec, &cluster);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsExecutionError());
  // The surfaced error is the task's *first* failure.
  EXPECT_NE(result.status().message().find("map task 2 attempt 0"),
            std::string::npos)
      << result.status();
}

TEST(FaultToleranceTest, UserErrorsAreRetriedAndThenSurfaced) {
  struct FailCounter : JobObserver {
    std::atomic<int> fails{0};
    void OnEvent(const JobEvent& event) override {
      if (event.type == JobEventType::kAttemptFail) ++fails;
    }
  } observer;
  Cluster cluster({4, 2, 4});
  JobSpec spec = WordCountSpec();
  spec.options.max_attempts = 2;
  spec.options.observer = &observer;
  spec.map_fn = [](const Record& rec, Emitter*) -> Status {
    if (rec.value == Bytes("pivot")) {
      return Status::ExecutionError("user map exploded");
    }
    return Status::OK();
  };
  auto result = RunJob(spec, &cluster);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("user map exploded"),
            std::string::npos);
  // A deterministic user error burns the whole budget before surfacing:
  // the first "pivot" split to exhaust fails both of its attempts.
  EXPECT_GE(observer.fails.load(), 2);
}

TEST(FaultToleranceTest, SpeculationCommitsTheBackupAttempt) {
  Cluster cluster({4, 2, 4});
  JobSpec spec = WordCountSpec();
  spec.options.speculation.enabled = true;
  spec.options.speculation.slow_attempt_seconds = 0.02;
  // Attempt 0 of map task 0 straggles far past the threshold; the backup
  // (attempt 1) runs clean, commits, and the primary is cancelled out of
  // its delay.
  spec.options.fault = std::make_shared<TargetedFaultInjector>(
      std::vector<TargetedFault>{{TaskKind::kMap, 0, 0, /*delay=*/5.0}});
  obs::Stopwatch watch;
  auto result = RunJob(spec, &cluster);
  ASSERT_TRUE(result.ok()) << result.status();
  // Cancellation must cut the 5s injected delay short.
  EXPECT_LT(watch.ElapsedSeconds(), 4.0);

  const auto& events = result->trace.events();
  EXPECT_GE(result->trace.Count(JobEventType::kAttemptSpeculate), 1);
  EXPECT_GE(result->trace.Count(JobEventType::kAttemptKill), 1);
  auto finish = std::find_if(events.begin(), events.end(), [](const JobEvent& e) {
    return e.type == JobEventType::kAttemptFinish &&
           e.kind == TaskKind::kMap && e.task == 0;
  });
  ASSERT_NE(finish, events.end());
  EXPECT_EQ(finish->attempt, 1);

  Cluster clean_cluster({4, 2, 4});
  auto clean = RunJob(WordCountSpec(), &clean_cluster);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(OutputsEqual(clean->outputs, result->outputs));
  EXPECT_EQ(clean->counters.Snapshot(), result->counters.Snapshot());
}

TEST(FaultToleranceTest, ObserverSeesEveryTraceEvent) {
  struct CountingObserver : JobObserver {
    std::vector<JobEventType> seen;
    void OnEvent(const JobEvent& event) override {
      seen.push_back(event.type);
    }
  } observer;
  Cluster cluster({4, 2, 4});
  JobSpec spec = WordCountSpec();
  spec.options.observer = &observer;
  spec.options.max_attempts = 2;
  spec.options.fault = std::make_shared<TargetedFaultInjector>(
      std::vector<TargetedFault>{{TaskKind::kMap, 0, 1, 0.0}});
  auto result = RunJob(spec, &cluster);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(observer.seen.size(), result->trace.events().size());
}

TEST(FaultToleranceTest, TraceExportsJson) {
  Cluster cluster({4, 2, 4});
  auto result = RunJob(WordCountSpec(), &cluster);
  ASSERT_TRUE(result.ok());
  const std::string json = result->trace.ToJson();
  EXPECT_NE(json.find("\"attempt_finish\""), std::string::npos);
  EXPECT_NE(json.find("\"phase_start\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"map\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

TEST(FaultToleranceTest, RandomInjectorIsDeterministic) {
  RandomFaultOptions opts;
  opts.failure_probability = 0.3;
  opts.straggler_probability = 0.3;
  opts.straggler_delay_seconds = 1.0;
  opts.seed = 99;
  RandomFaultInjector a(opts), b(opts);
  int fails = 0, delays = 0;
  for (std::size_t task = 0; task < 64; ++task) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      FaultDecision da = a.OnAttempt(TaskKind::kMap, task, attempt);
      FaultDecision db = b.OnAttempt(TaskKind::kMap, task, attempt);
      EXPECT_EQ(da.fail, db.fail);
      EXPECT_EQ(da.delay_seconds, db.delay_seconds);
      fails += da.fail;
      delays += da.delay_seconds > 0.0;
    }
  }
  // ~30% of 256 decisions on each stream.
  EXPECT_GT(fails, 40);
  EXPECT_LT(fails, 140);
  EXPECT_GT(delays, 40);
  EXPECT_LT(delays, 140);
}

TEST(FaultToleranceTest, CustomPartitionerRoutesThroughOptions) {
  Cluster cluster({4, 2, 4});
  JobSpec spec = WordCountSpec();
  spec.options.partition_fn = [](const std::vector<uint8_t>&, std::size_t) {
    return std::size_t{0};  // everything to reducer 0
  };
  auto result = RunJob(spec, &cluster);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->outputs.size(), 3u);
  EXPECT_FALSE(result->outputs[0].empty());
  EXPECT_TRUE(result->outputs[1].empty());
  EXPECT_TRUE(result->outputs[2].empty());
}

TEST(FaultToleranceTest, FaultyRunsMatchAtEveryShuffleBudget) {
  // The identity contract holds per budget even when map attempts fail
  // *after* spilling: losing attempts' spill files are discarded with
  // their AttemptOutput and the retry re-creates them deterministically.
  for (std::size_t budget :
       {std::size_t{256}, std::size_t{64 * 1024}, kUnlimitedShuffleMemory}) {
    Cluster clean_cluster({4, 2, 4});
    JobSpec clean = WordCountSpec();
    clean.options.shuffle_memory_bytes = budget;
    auto clean_result = RunJob(clean, &clean_cluster);
    ASSERT_TRUE(clean_result.ok()) << clean_result.status();

    Cluster faulty_cluster({4, 2, 4});
    JobSpec faulty = WordCountSpec();
    faulty.options = FaultyExec(/*seed=*/7);
    faulty.options.num_reducers = clean.options.num_reducers;
    faulty.options.shuffle_memory_bytes = budget;
    auto faulty_result = RunJob(faulty, &faulty_cluster);
    ASSERT_TRUE(faulty_result.ok()) << faulty_result.status();

    EXPECT_TRUE(OutputsEqual(clean_result->outputs, faulty_result->outputs))
        << "budget " << budget;
    EXPECT_EQ(clean_result->counters.Snapshot(),
              faulty_result->counters.Snapshot())
        << "budget " << budget;
  }
}

TEST(CancelTokenTest, CancelInterruptsSleep) {
  CancelToken token;
  obs::Stopwatch watch;
  Thread canceller([&token] {
    SleepFor(std::chrono::milliseconds(20));
    token.Cancel();
  });
  EXPECT_FALSE(token.SleepFor(10.0));
  canceller.join();
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
  EXPECT_TRUE(token.cancelled());
  // Sleeping on an already-cancelled token returns immediately.
  EXPECT_FALSE(token.SleepFor(10.0));
}

}  // namespace
}  // namespace hamming::mr

namespace hamming::mrjoin {
namespace {

// Every MapReduce join plan (MRHA A/B, PMH, PGBJ) must be
// fault-transparent: with injected failure probability 0.2 and
// stragglers, results and data-movement counters match the failure-free
// run exactly.
class PlanFaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_data_ = GenerateDataset(DatasetKind::kNusWide, 200,
                              {.num_clusters = 8, .seed = 3});
    s_data_ = GenerateDataset(DatasetKind::kNusWide, 250,
                              {.num_clusters = 8, .seed = 3});
  }

  // Same regime as mr::FaultyExec above: p=0.2 failures, stragglers,
  // retries and speculation on.
  static mr::ExecutionOptions Faulty(uint64_t seed) {
    mr::ExecutionOptions exec;
    exec.max_attempts = 8;
    exec.speculation.enabled = true;
    exec.speculation.slow_attempt_seconds = 0.05;
    mr::RandomFaultOptions f;
    f.failure_probability = 0.2;
    f.straggler_probability = 0.1;
    f.straggler_delay_seconds = 0.1;
    f.seed = seed;
    exec.fault = std::make_shared<mr::RandomFaultInjector>(f);
    return exec;
  }

  FloatMatrix r_data_;
  FloatMatrix s_data_;
};

void ExpectRowsEqual(const std::vector<KnnJoinRow>& a,
                     const std::vector<KnnJoinRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].r, b[i].r) << "row " << i;
    EXPECT_EQ(a[i].neighbors, b[i].neighbors) << "row " << i;
  }
}

TEST_F(PlanFaultToleranceTest, MrhaMatchesFailureFreeRun) {
  for (MrhaOption option : {MrhaOption::kA, MrhaOption::kB}) {
    MrhaOptions opts;
    opts.num_partitions = 4;
    opts.option = option;
    auto fault_opts = opts;
    fault_opts.exec = Faulty(/*seed=*/11);
    mr::Cluster clean_cluster({4, 2, 4});
    mr::Cluster faulty_cluster({4, 2, 4});
    auto clean = RunMrhaJoin(r_data_, s_data_, opts, &clean_cluster);
    auto faulty = RunMrhaJoin(r_data_, s_data_, fault_opts, &faulty_cluster);
    ASSERT_TRUE(clean.ok()) << clean.status();
    ASSERT_TRUE(faulty.ok()) << faulty.status();
    auto clean_pairs = clean->pairs;
    auto faulty_pairs = faulty->pairs;
    NormalizePairs(&clean_pairs);
    NormalizePairs(&faulty_pairs);
    EXPECT_EQ(clean_pairs, faulty_pairs);
    EXPECT_EQ(clean->shuffle_bytes, faulty->shuffle_bytes);
    EXPECT_EQ(clean->broadcast_bytes, faulty->broadcast_bytes);
    EXPECT_EQ(clean_cluster.cumulative_counters()->Snapshot(),
              faulty_cluster.cumulative_counters()->Snapshot());
  }
}

TEST_F(PlanFaultToleranceTest, PmhMatchesFailureFreeRun) {
  PmhOptions opts;
  opts.num_partitions = 4;
  auto fault_opts = opts;
  fault_opts.exec = Faulty(/*seed=*/12);
  mr::Cluster clean_cluster({4, 2, 4});
  mr::Cluster faulty_cluster({4, 2, 4});
  auto clean = RunPmhJoin(r_data_, s_data_, opts, &clean_cluster);
  auto faulty = RunPmhJoin(r_data_, s_data_, fault_opts, &faulty_cluster);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(faulty.ok()) << faulty.status();
  auto clean_pairs = clean->pairs;
  auto faulty_pairs = faulty->pairs;
  NormalizePairs(&clean_pairs);
  NormalizePairs(&faulty_pairs);
  EXPECT_EQ(clean_pairs, faulty_pairs);
  EXPECT_EQ(clean->shuffle_bytes, faulty->shuffle_bytes);
  EXPECT_EQ(clean->broadcast_bytes, faulty->broadcast_bytes);
}

TEST_F(PlanFaultToleranceTest, PgbjMatchesFailureFreeRun) {
  PgbjOptions opts;
  opts.num_partitions = 4;
  opts.k = 5;
  auto fault_opts = opts;
  fault_opts.exec = Faulty(/*seed=*/13);
  mr::Cluster clean_cluster({4, 2, 4});
  mr::Cluster faulty_cluster({4, 2, 4});
  auto clean = RunPgbjJoin(r_data_, s_data_, opts, &clean_cluster);
  auto faulty = RunPgbjJoin(r_data_, s_data_, fault_opts, &faulty_cluster);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(faulty.ok()) << faulty.status();
  ExpectRowsEqual(clean->rows, faulty->rows);
  EXPECT_EQ(clean->shuffle_bytes, faulty->shuffle_bytes);
}

// Every plan must produce byte-identical results and logical counters
// whatever the shuffle memory budget — unlimited (in-memory), 1 MiB, or
// 64 KiB (heavy spilling) — and, at the small budget, also under injected
// faults with speculation on.
TEST_F(PlanFaultToleranceTest, PlansByteIdenticalAcrossShuffleBudgets) {
  const std::size_t kSmall = std::size_t{64} << 10;
  const std::vector<std::size_t> kCleanBudgets = {std::size_t{1} << 20,
                                                  kSmall};

  for (MrhaOption option : {MrhaOption::kA, MrhaOption::kB}) {
    MrhaOptions opts;
    opts.num_partitions = 4;
    opts.option = option;
    mr::Cluster base_cluster({4, 2, 4});
    auto base = RunMrhaJoin(r_data_, s_data_, opts, &base_cluster);
    ASSERT_TRUE(base.ok()) << base.status();
    auto base_pairs = base->pairs;
    NormalizePairs(&base_pairs);
    auto check = [&](const MrhaOptions& variant, const std::string& what) {
      mr::Cluster cluster({4, 2, 4});
      auto got = RunMrhaJoin(r_data_, s_data_, variant, &cluster);
      ASSERT_TRUE(got.ok()) << what << ": " << got.status();
      auto pairs = got->pairs;
      NormalizePairs(&pairs);
      EXPECT_EQ(base_pairs, pairs) << what;
      EXPECT_EQ(base->shuffle_bytes, got->shuffle_bytes) << what;
      EXPECT_EQ(base->broadcast_bytes, got->broadcast_bytes) << what;
    };
    for (std::size_t budget : kCleanBudgets) {
      auto v = opts;
      v.exec.shuffle_memory_bytes = budget;
      check(v, "mrha clean budget " + std::to_string(budget));
    }
    auto fv = opts;
    fv.exec = Faulty(/*seed=*/21);
    fv.exec.shuffle_memory_bytes = kSmall;
    check(fv, "mrha faulty 64KiB");
  }

  {
    PmhOptions opts;
    opts.num_partitions = 4;
    mr::Cluster base_cluster({4, 2, 4});
    auto base = RunPmhJoin(r_data_, s_data_, opts, &base_cluster);
    ASSERT_TRUE(base.ok()) << base.status();
    auto base_pairs = base->pairs;
    NormalizePairs(&base_pairs);
    auto check = [&](const PmhOptions& variant, const std::string& what) {
      mr::Cluster cluster({4, 2, 4});
      auto got = RunPmhJoin(r_data_, s_data_, variant, &cluster);
      ASSERT_TRUE(got.ok()) << what << ": " << got.status();
      auto pairs = got->pairs;
      NormalizePairs(&pairs);
      EXPECT_EQ(base_pairs, pairs) << what;
      EXPECT_EQ(base->shuffle_bytes, got->shuffle_bytes) << what;
    };
    for (std::size_t budget : kCleanBudgets) {
      auto v = opts;
      v.exec.shuffle_memory_bytes = budget;
      check(v, "pmh clean budget " + std::to_string(budget));
    }
    auto fv = opts;
    fv.exec = Faulty(/*seed=*/22);
    fv.exec.shuffle_memory_bytes = kSmall;
    check(fv, "pmh faulty 64KiB");
  }

  {
    PgbjOptions opts;
    opts.num_partitions = 4;
    opts.k = 5;
    mr::Cluster base_cluster({4, 2, 4});
    auto base = RunPgbjJoin(r_data_, s_data_, opts, &base_cluster);
    ASSERT_TRUE(base.ok()) << base.status();
    auto check = [&](const PgbjOptions& variant, const std::string& what) {
      mr::Cluster cluster({4, 2, 4});
      auto got = RunPgbjJoin(r_data_, s_data_, variant, &cluster);
      ASSERT_TRUE(got.ok()) << what << ": " << got.status();
      ExpectRowsEqual(base->rows, got->rows);
      EXPECT_EQ(base->shuffle_bytes, got->shuffle_bytes) << what;
    };
    for (std::size_t budget : kCleanBudgets) {
      auto v = opts;
      v.exec.shuffle_memory_bytes = budget;
      check(v, "pgbj clean budget " + std::to_string(budget));
    }
    auto fv = opts;
    fv.exec = Faulty(/*seed=*/23);
    fv.exec.shuffle_memory_bytes = kSmall;
    check(fv, "pgbj faulty 64KiB");
  }
}

}  // namespace
}  // namespace hamming::mrjoin
