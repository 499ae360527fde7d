#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mapreduce/job.h"

namespace hamming::mr {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string Str(const std::vector<uint8_t>& b) {
  return std::string(b.begin(), b.end());
}

// The canonical MapReduce smoke test: word count.
TEST(MapReduce, WordCount) {
  Cluster cluster({/*num_nodes=*/4, /*slots_per_node=*/2, /*num_threads=*/4});
  JobSpec spec;
  spec.name = "wordcount";
  spec.options.num_reducers = 3;
  std::vector<Record> docs;
  docs.push_back({{}, Bytes("the quick brown fox")});
  docs.push_back({{}, Bytes("the lazy dog")});
  docs.push_back({{}, Bytes("the fox")});
  spec.input_splits = SplitEvenly(std::move(docs), 2);
  spec.map_fn = [](const Record& rec, Emitter* out) -> Status {
    std::string text = Str(rec.value);
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t end = text.find(' ', pos);
      if (end == std::string::npos) end = text.size();
      out->Emit(Bytes(text.substr(pos, end - pos)), Bytes("1"));
      pos = end + 1;
    }
    return Status::OK();
  };
  spec.reduce_fn = [](const std::vector<uint8_t>& key,
                      const std::vector<std::vector<uint8_t>>& values,
                      Emitter* out) -> Status {
    out->Emit(key, Bytes(std::to_string(values.size())));
    return Status::OK();
  };
  auto result = RunJob(spec, &cluster).ValueOrDie();

  std::map<std::string, std::string> counts;
  for (const auto& part : result.outputs) {
    for (const auto& rec : part) counts[Str(rec.key)] = Str(rec.value);
  }
  EXPECT_EQ(counts["the"], "3");
  EXPECT_EQ(counts["fox"], "2");
  EXPECT_EQ(counts["dog"], "1");
  EXPECT_EQ(counts.size(), 6u);

  EXPECT_EQ(result.counters.Get(kMapInputRecords), 3);
  EXPECT_EQ(result.counters.Get(kMapOutputRecords), 9);
  EXPECT_EQ(result.counters.Get(kReduceInputGroups), 6);
  EXPECT_GT(result.counters.Get(kShuffleBytes), 0);
}

TEST(MapReduce, ShuffleBytesMatchRecordSizes) {
  Cluster cluster({2, 2, 2});
  JobSpec spec;
  spec.name = "bytes";
  spec.options.num_reducers = 1;
  spec.input_splits = {{{{}, Bytes("x")}}};
  spec.map_fn = [](const Record&, Emitter* out) -> Status {
    out->Emit(Bytes("key"), Bytes("value"));  // 3 + 5 + 8 framing = 16
    return Status::OK();
  };
  spec.reduce_fn = [](const std::vector<uint8_t>& key,
                      const std::vector<std::vector<uint8_t>>&,
                      Emitter* out) -> Status {
    out->Emit(key, {});
    return Status::OK();
  };
  auto result = RunJob(spec, &cluster).ValueOrDie();
  EXPECT_EQ(result.counters.Get(kShuffleBytes), 16);
}

TEST(MapReduce, GroupsAllValuesOfAKey) {
  Cluster cluster({2, 2, 2});
  JobSpec spec;
  spec.name = "grouping";
  spec.options.num_reducers = 4;
  std::vector<Record> input;
  for (int i = 0; i < 100; ++i) {
    input.push_back({{}, Bytes(std::to_string(i))});
  }
  spec.input_splits = SplitEvenly(std::move(input), 7);
  spec.map_fn = [](const Record& rec, Emitter* out) -> Status {
    int v = std::stoi(Str(rec.value));
    out->Emit(Bytes(std::to_string(v % 5)), rec.value);
    return Status::OK();
  };
  spec.reduce_fn = [](const std::vector<uint8_t>& key,
                      const std::vector<std::vector<uint8_t>>& values,
                      Emitter* out) -> Status {
    EXPECT_EQ(values.size(), 20u) << "key " << Str(key);
    out->Emit(key, Bytes(std::to_string(values.size())));
    return Status::OK();
  };
  auto result = RunJob(spec, &cluster).ValueOrDie();
  std::size_t groups = 0;
  for (const auto& part : result.outputs) groups += part.size();
  EXPECT_EQ(groups, 5u);
}

TEST(MapReduce, CustomPartitionerRoutesKeys) {
  Cluster cluster({2, 2, 2});
  JobSpec spec;
  spec.name = "routing";
  spec.options.num_reducers = 2;
  std::vector<Record> input;
  for (int i = 0; i < 10; ++i) input.push_back({{}, Bytes("x")});
  spec.input_splits = SplitEvenly(std::move(input), 3);
  spec.map_fn = [](const Record&, Emitter* out) -> Status {
    out->Emit(Bytes("even"), Bytes("1"));
    out->Emit(Bytes("odd"), Bytes("1"));
    return Status::OK();
  };
  spec.options.partition_fn = [](const std::vector<uint8_t>& key, std::size_t) {
    return Str(key) == "even" ? 0u : 1u;
  };
  spec.reduce_fn = [](const std::vector<uint8_t>& key,
                      const std::vector<std::vector<uint8_t>>&,
                      Emitter* out) -> Status {
    out->Emit(key, {});
    return Status::OK();
  };
  auto result = RunJob(spec, &cluster).ValueOrDie();
  ASSERT_EQ(result.outputs.size(), 2u);
  ASSERT_EQ(result.outputs[0].size(), 1u);
  ASSERT_EQ(result.outputs[1].size(), 1u);
  EXPECT_EQ(Str(result.outputs[0][0].key), "even");
  EXPECT_EQ(Str(result.outputs[1][0].key), "odd");
}

TEST(MapReduce, MapOnlyJob) {
  Cluster cluster({2, 2, 2});
  JobSpec spec;
  spec.name = "map-only";
  spec.options.num_reducers = 2;
  spec.input_splits = {{{{}, Bytes("a")}, {{}, Bytes("b")}}};
  spec.map_fn = [](const Record& rec, Emitter* out) -> Status {
    out->Emit(rec.value, rec.value);
    return Status::OK();
  };
  auto result = RunJob(spec, &cluster).ValueOrDie();
  std::size_t total = 0;
  for (const auto& part : result.outputs) total += part.size();
  EXPECT_EQ(total, 2u);
}

TEST(MapReduce, MapErrorAbortsJob) {
  Cluster cluster({2, 2, 2});
  JobSpec spec;
  spec.name = "map-error";
  spec.options.num_reducers = 1;
  spec.input_splits = {{{{}, Bytes("boom")}}};
  spec.map_fn = [](const Record&, Emitter*) -> Status {
    return Status::ExecutionError("mapper exploded");
  };
  spec.reduce_fn = [](const std::vector<uint8_t>&,
                      const std::vector<std::vector<uint8_t>>&,
                      Emitter*) -> Status { return Status::OK(); };
  auto result = RunJob(spec, &cluster);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsExecutionError());
}

TEST(MapReduce, ReduceErrorAbortsJob) {
  Cluster cluster({2, 2, 2});
  JobSpec spec;
  spec.name = "reduce-error";
  spec.options.num_reducers = 1;
  spec.input_splits = {{{{}, Bytes("x")}}};
  spec.map_fn = [](const Record& rec, Emitter* out) -> Status {
    out->Emit(rec.value, rec.value);
    return Status::OK();
  };
  spec.reduce_fn = [](const std::vector<uint8_t>&,
                      const std::vector<std::vector<uint8_t>>&,
                      Emitter*) -> Status {
    return Status::ExecutionError("reducer exploded");
  };
  EXPECT_FALSE(RunJob(spec, &cluster).ok());
}

TEST(MapReduce, ValidationErrors) {
  Cluster cluster({2, 2, 2});
  JobSpec spec;
  spec.options.num_reducers = 0;
  spec.map_fn = [](const Record&, Emitter*) -> Status {
    return Status::OK();
  };
  EXPECT_FALSE(RunJob(spec, &cluster).ok());
  JobSpec no_map;
  no_map.options.num_reducers = 1;
  EXPECT_FALSE(RunJob(no_map, &cluster).ok());
}

TEST(MapReduce, CumulativeCountersAccumulateAcrossJobs) {
  Cluster cluster({2, 2, 2});
  JobSpec spec;
  spec.name = "twice";
  spec.options.num_reducers = 1;
  spec.input_splits = {{{{}, Bytes("x")}}};
  spec.map_fn = [](const Record& rec, Emitter* out) -> Status {
    out->Emit(rec.value, rec.value);
    return Status::OK();
  };
  ASSERT_TRUE(RunJob(spec, &cluster).ok());
  int64_t after_one = cluster.cumulative_counters()->Get(kShuffleBytes);
  ASSERT_TRUE(RunJob(spec, &cluster).ok());
  EXPECT_EQ(cluster.cumulative_counters()->Get(kShuffleBytes), 2 * after_one);
}

TEST(DistributedCacheTest, BroadcastChargesEveryNode) {
  Counters counters;
  DistributedCache cache(/*num_nodes=*/8);
  cache.Broadcast({1, 2, 3, 4}, &counters);
  EXPECT_EQ(counters.Get(kBroadcastBytes), 4 * 8);
}

TEST(CountersTest, MergeAndSnapshot) {
  Counters a, b;
  a.Add("x", 5);
  b.Add("x", 2);
  b.Add("y", 1);
  a.Merge(b);
  EXPECT_EQ(a.Get("x"), 7);
  EXPECT_EQ(a.Get("y"), 1);
  EXPECT_EQ(a.Get("z"), 0);
  auto snap = a.Snapshot();
  EXPECT_EQ(snap.size(), 2u);
}

TEST(MapReduce, SplitEvenlyCoversAllRecords) {
  std::vector<Record> records;
  for (int i = 0; i < 17; ++i) records.push_back({{}, {}});
  auto splits = SplitEvenly(std::move(records), 4);
  EXPECT_EQ(splits.size(), 4u);
  std::size_t total = 0;
  for (const auto& s : splits) {
    total += s.size();
    EXPECT_GE(s.size(), 4u);
    EXPECT_LE(s.size(), 5u);
  }
  EXPECT_EQ(total, 17u);
}

}  // namespace
}  // namespace hamming::mr
