#include <gtest/gtest.h>

#include <map>

#include "src/common/rng.h"
#include "src/crypto/encryptor.h"
#include "src/oram/block_codec.h"
#include "src/oram/path.h"
#include "src/oram/ring_oram.h"
#include "src/storage/memory_store.h"

namespace obladi {
namespace {

struct OramTestEnv {
  RingOramConfig config;
  std::shared_ptr<MemoryBucketStore> store;
  std::shared_ptr<Encryptor> encryptor;
  std::unique_ptr<RingOram> oram;
};

OramTestEnv MakeOram(uint64_t capacity, RingOramOptions options, uint32_t z = 4,
                     size_t payload = 64, uint64_t seed = 1234) {
  OramTestEnv env;
  env.config = RingOramConfig::ForCapacity(capacity, z, payload);
  env.store = std::make_shared<MemoryBucketStore>(env.config.num_buckets(),
                                                  env.config.slots_per_bucket());
  env.encryptor = std::make_shared<Encryptor>(
      Encryptor::FromMasterKey(BytesFromString("test-key"), env.config.authenticated, seed));
  env.oram = std::make_unique<RingOram>(env.config, options, env.store, env.encryptor, seed);
  return env;
}

std::vector<Bytes> SequentialValues(uint64_t n, size_t payload = 64) {
  std::vector<Bytes> values(n);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = BytesFromString("value-" + std::to_string(i));
    values[i].resize(payload, 0);
  }
  return values;
}

// Three execution modes: sequential, parallel-immediate, parallel-deferred.
struct ModeParam {
  const char* name;
  bool parallel;
  bool defer;
};

class RingOramModeTest : public testing::TestWithParam<ModeParam> {
 protected:
  RingOramOptions Options() const {
    RingOramOptions opts;
    opts.parallel = GetParam().parallel;
    opts.defer_writes = GetParam().defer;
    opts.io_threads = 8;
    return opts;
  }
};

INSTANTIATE_TEST_SUITE_P(
    AllModes, RingOramModeTest,
    testing::Values(ModeParam{"sequential", false, false},
                    ModeParam{"parallel_immediate", true, false},
                    ModeParam{"parallel_deferred", true, true}),
    [](const testing::TestParamInfo<ModeParam>& info) { return info.param.name; });

TEST_P(RingOramModeTest, ReadsBackInitialValues) {
  auto env = MakeOram(64, Options());
  auto values = SequentialValues(64);
  ASSERT_TRUE(env.oram->Initialize(values).ok());

  for (BlockId id = 0; id < 64; id += 7) {
    auto result = env.oram->ReadBatch({id});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ((*result)[0], values[id]) << "block " << id;
  }
  ASSERT_TRUE(env.oram->FinishEpoch().ok());
  EXPECT_TRUE(env.oram->CheckInvariants().ok());
}

TEST_P(RingOramModeTest, WriteThenReadAcrossEpochs) {
  auto env = MakeOram(64, Options());
  ASSERT_TRUE(env.oram->Initialize(SequentialValues(64)).ok());

  Bytes new_value = BytesFromString("updated!");
  new_value.resize(64, 0);
  ASSERT_TRUE(env.oram->WriteBatch({{5, new_value}}, 4).ok());
  ASSERT_TRUE(env.oram->FinishEpoch().ok());

  auto result = env.oram->ReadBatch({5});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0], new_value);
  ASSERT_TRUE(env.oram->FinishEpoch().ok());
  EXPECT_TRUE(env.oram->CheckInvariants().ok());
}

TEST_P(RingOramModeTest, SustainedRandomWorkloadStaysCorrect) {
  const uint64_t kCapacity = 128;
  auto env = MakeOram(kCapacity, Options());
  auto values = SequentialValues(kCapacity);
  ASSERT_TRUE(env.oram->Initialize(values).ok());

  std::map<BlockId, Bytes> expected;
  for (BlockId id = 0; id < kCapacity; ++id) {
    expected[id] = values[id];
  }

  Rng rng(99);
  for (int epoch = 0; epoch < 30; ++epoch) {
    // A few read batches with distinct ids (the proxy guarantees dedup).
    for (int b = 0; b < 2; ++b) {
      std::vector<BlockId> ids;
      while (ids.size() < 4) {
        BlockId id = rng.Uniform(kCapacity);
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
      ids.push_back(kInvalidBlockId);  // padding request
      auto result = env.oram->ReadBatch(ids);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ((*result)[i], expected[ids[i]]) << "epoch " << epoch << " block " << ids[i];
      }
      EXPECT_TRUE((*result)[4].empty());
    }
    // A write batch.
    std::vector<std::pair<BlockId, Bytes>> writes;
    for (int w = 0; w < 3; ++w) {
      BlockId id = rng.Uniform(kCapacity);
      Bytes value = BytesFromString("e" + std::to_string(epoch) + "-w" + std::to_string(w));
      value.resize(64, 0);
      expected[id] = value;
      writes.emplace_back(id, value);
    }
    ASSERT_TRUE(env.oram->WriteBatch(writes, 4).ok());
    ASSERT_TRUE(env.oram->FinishEpoch().ok());
    ASSERT_TRUE(env.oram->CheckInvariants().ok()) << "epoch " << epoch;
  }

  // Final sweep: every block readable with its latest value.
  for (BlockId id = 0; id < kCapacity; ++id) {
    auto result = env.oram->ReadBatch({id});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ((*result)[0], expected[id]) << "block " << id;
    if (id % 16 == 15) {
      ASSERT_TRUE(env.oram->FinishEpoch().ok());
    }
  }
}

TEST_P(RingOramModeTest, StashStaysBounded) {
  const uint64_t kCapacity = 256;
  auto env = MakeOram(kCapacity, Options());
  ASSERT_TRUE(env.oram->Initialize(SequentialValues(kCapacity)).ok());

  Rng rng(5);
  size_t max_stash = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<BlockId> ids;
    while (ids.size() < 4) {
      BlockId id = rng.Uniform(kCapacity);
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    ASSERT_TRUE(env.oram->ReadBatch(ids).ok());
    if (round % 4 == 3) {
      ASSERT_TRUE(env.oram->FinishEpoch().ok());
      max_stash = std::max(max_stash, env.oram->stash().size());
    }
  }
  ASSERT_TRUE(env.oram->FinishEpoch().ok());
  EXPECT_LE(max_stash, env.config.max_stash_blocks)
      << "stash exceeded the analytic bound used for checkpoint padding";
}

TEST_P(RingOramModeTest, DummyRequestsReturnEmpty) {
  auto env = MakeOram(32, Options());
  ASSERT_TRUE(env.oram->Initialize(SequentialValues(32)).ok());
  std::vector<BlockId> ids(8, kInvalidBlockId);
  auto result = env.oram->ReadBatch(ids);
  ASSERT_TRUE(result.ok());
  for (const auto& v : *result) {
    EXPECT_TRUE(v.empty());
  }
  ASSERT_TRUE(env.oram->FinishEpoch().ok());
  EXPECT_TRUE(env.oram->CheckInvariants().ok());
}

TEST_P(RingOramModeTest, BlindWriteToNeverReadBlock) {
  auto env = MakeOram(64, Options());
  ASSERT_TRUE(env.oram->Initialize(SequentialValues(64)).ok());
  Bytes v1 = BytesFromString("blind-1");
  Bytes v2 = BytesFromString("blind-2");
  // Two blind writes to the same block in different epochs: no reads at all.
  ASSERT_TRUE(env.oram->WriteBatch({{9, v1}}, 2).ok());
  ASSERT_TRUE(env.oram->FinishEpoch().ok());
  ASSERT_TRUE(env.oram->WriteBatch({{9, v2}}, 2).ok());
  ASSERT_TRUE(env.oram->FinishEpoch().ok());
  auto result = env.oram->ReadBatch({9});
  ASSERT_TRUE(result.ok());
  v2.resize((*result)[0].size(), 0);
  EXPECT_EQ((*result)[0], v2);
  ASSERT_TRUE(env.oram->FinishEpoch().ok());
  EXPECT_TRUE(env.oram->CheckInvariants().ok());
}

TEST_P(RingOramModeTest, ReadAndWriteSameBlockInOneEpoch) {
  auto env = MakeOram(64, Options());
  ASSERT_TRUE(env.oram->Initialize(SequentialValues(64)).ok());
  auto before = env.oram->ReadBatch({7});
  ASSERT_TRUE(before.ok());
  Bytes updated = BytesFromString("updated-in-epoch");
  ASSERT_TRUE(env.oram->WriteBatch({{7, updated}}, 2).ok());
  ASSERT_TRUE(env.oram->FinishEpoch().ok());
  auto after = env.oram->ReadBatch({7});
  ASSERT_TRUE(after.ok());
  updated.resize((*after)[0].size(), 0);
  EXPECT_EQ((*after)[0], updated);
  ASSERT_TRUE(env.oram->FinishEpoch().ok());
  EXPECT_TRUE(env.oram->CheckInvariants().ok());
}

// Deferred mode: a bucket rewritten k times in an epoch is physically written
// once (write deduplication, §7), and the root is written at most once.
TEST(RingOramDeferredTest, BucketWritesAreDeduplicated) {
  RingOramOptions opts;
  opts.parallel = true;
  opts.defer_writes = true;
  auto env = MakeOram(128, opts);
  ASSERT_TRUE(env.oram->Initialize(SequentialValues(128)).ok());
  env.oram->ResetStats();

  Rng rng(3);
  for (int b = 0; b < 8; ++b) {
    std::vector<BlockId> ids;
    while (ids.size() < 8) {
      BlockId id = rng.Uniform(128);
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    ASSERT_TRUE(env.oram->ReadBatch(ids).ok());
  }
  ASSERT_TRUE(env.oram->FinishEpoch().ok());

  auto stats = env.oram->stats();
  EXPECT_GT(stats.evictions, 1u);
  EXPECT_GT(stats.planned_bucket_rewrites, stats.physical_bucket_writes)
      << "an epoch with >1 eviction must dedup overlapping bucket writes";
}

// In deferred mode the server must see no bucket writes until FinishEpoch.
TEST(RingOramDeferredTest, NoPhysicalWritesBeforeEpochEnd) {
  RingOramOptions opts;
  opts.parallel = true;
  opts.defer_writes = true;
  auto env = MakeOram(64, opts);
  ASSERT_TRUE(env.oram->Initialize(SequentialValues(64)).ok());

  env.oram->trace().Enable();
  Rng rng(8);
  for (int b = 0; b < 4; ++b) {
    std::vector<BlockId> ids;
    while (ids.size() < 4) {
      BlockId id = rng.Uniform(64);
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    ASSERT_TRUE(env.oram->ReadBatch(ids).ok());
  }
  for (const auto& op : env.oram->trace().ops()) {
    EXPECT_EQ(op.type, PhysicalOpType::kReadSlot) << "write leaked before epoch end";
  }
  ASSERT_TRUE(env.oram->FinishEpoch().ok());
  bool saw_write = false;
  for (const auto& op : env.oram->trace().ops()) {
    saw_write |= op.type == PhysicalOpType::kWriteBucket;
  }
  EXPECT_TRUE(saw_write);
}

// Bucket invariant: no physical slot read twice between writes of the bucket.
TEST(RingOramSecurityTest, NoSlotReadTwiceBetweenBucketWrites) {
  RingOramOptions opts;
  opts.parallel = true;
  opts.defer_writes = true;
  auto env = MakeOram(128, opts);
  ASSERT_TRUE(env.oram->Initialize(SequentialValues(128)).ok());
  env.oram->trace().Enable();

  Rng rng(21);
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int b = 0; b < 4; ++b) {
      std::vector<BlockId> ids;
      while (ids.size() < 4) {
        BlockId id = rng.Uniform(128);
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
      ASSERT_TRUE(env.oram->ReadBatch(ids).ok());
    }
    ASSERT_TRUE(env.oram->FinishEpoch().ok());
  }

  // For each bucket version, every (slot) read at most once.
  std::map<std::pair<BucketIndex, uint32_t>, std::set<SlotIndex>> reads;
  for (const auto& op : env.oram->trace().ops()) {
    if (op.type != PhysicalOpType::kReadSlot) {
      continue;
    }
    auto key = std::make_pair(op.bucket, op.version);
    EXPECT_TRUE(reads[key].insert(op.slot).second)
        << "slot " << op.slot << " of bucket " << op.bucket << " version " << op.version
        << " read twice";
  }
}

// Path invariant / uniformity: accessed leaves are uniformly distributed even
// under a highly skewed logical workload (chi-square test).
TEST(RingOramSecurityTest, AccessedLeavesAreUniform) {
  RingOramOptions opts;
  opts.parallel = true;
  opts.defer_writes = true;
  auto env = MakeOram(512, opts, /*z=*/4, /*payload=*/32);
  ASSERT_TRUE(env.oram->Initialize(SequentialValues(512, 32)).ok());

  uint32_t leaves = env.config.num_leaves();
  std::vector<uint64_t> counts(leaves, 0);
  env.oram->SetBatchPlannedHook([&](const BatchPlan& plan) {
    for (const auto& req : plan.requests) {
      counts[req.leaf]++;
    }
    return Status::Ok();
  });

  // Skewed workload: 90% of accesses to 8 hot blocks — but never the same
  // block twice per epoch (the proxy's dedup guarantees this).
  Rng rng(77);
  const int kBatches = 3000;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<BlockId> ids;
    while (ids.size() < 4) {
      BlockId id = rng.Bernoulli(0.9) ? rng.Uniform(8) : rng.Uniform(512);
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    ASSERT_TRUE(env.oram->ReadBatch(ids).ok());
    ASSERT_TRUE(env.oram->FinishEpoch().ok());
  }

  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }
  double expected = static_cast<double>(total) / leaves;
  double chi2 = 0;
  for (uint64_t c : counts) {
    double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // dof = leaves - 1. For a uniform distribution chi2 concentrates around
  // dof; allow a generous margin (p ~ 1e-6).
  double dof = leaves - 1;
  EXPECT_LT(chi2, dof + 6 * std::sqrt(2 * dof))
      << "accessed-leaf distribution deviates from uniform";
}

// The §6.3 ablation: serving any stash-resident block without a dummy path
// read skews the observable distribution away from recently evicted paths.
// We verify the mechanism works (skips happen) — and that the secure default
// never skips.
TEST(RingOramSecurityTest, CacheAllStashAblationSkipsPhysicalReads) {
  RingOramOptions insecure;
  insecure.parallel = true;
  insecure.defer_writes = true;
  insecure.cache_all_stash = true;
  auto env = MakeOram(128, insecure);
  ASSERT_TRUE(env.oram->Initialize(SequentialValues(128)).ok());

  Rng rng(31);
  for (int round = 0; round < 60; ++round) {
    std::vector<BlockId> ids;
    while (ids.size() < 4) {
      BlockId id = rng.Uniform(16);  // hot set: repeatedly re-read
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    ASSERT_TRUE(env.oram->ReadBatch(ids).ok());
    ASSERT_TRUE(env.oram->FinishEpoch().ok());
  }
  EXPECT_GT(env.oram->stats().stash_cache_skips, 0u);

  RingOramOptions secure;
  secure.parallel = true;
  secure.defer_writes = true;
  auto env2 = MakeOram(128, secure);
  ASSERT_TRUE(env2.oram->Initialize(SequentialValues(128)).ok());
  ASSERT_TRUE(env2.oram->ReadBatch({1, 2, 3}).ok());
  EXPECT_EQ(env2.oram->stats().stash_cache_skips, 0u);
}

TEST(BlockCodecTest, EncodeDecodeRoundTripsIncludingEmptyPayload) {
  RingOramConfig config = RingOramConfig::ForCapacity(32, 4, 16);
  BlockCodec codec(config, BytesFromString("codec-key"));
  for (const Bytes& payload : {Bytes{}, BytesFromString("abc"), Bytes(40, 0x5a)}) {
    Bytes plaintext = codec.EncodeBlock(7, 3, payload);
    ASSERT_EQ(plaintext.size(), codec.plaintext_size());
    DecodedBlock block = codec.DecodeBlock(plaintext);
    EXPECT_EQ(block.id, 7u);
    EXPECT_EQ(block.leaf, 3u);
    // The payload comes back zero-padded (or truncated) to the configured size.
    Bytes want = payload;
    want.resize(config.block_payload_size, 0);
    EXPECT_EQ(block.payload, want);
  }
}

TEST(RingOramTest, ReadBatchErrorsOnUnknownBlock) {
  RingOramOptions opts;
  auto env = MakeOram(32, opts);
  ASSERT_TRUE(env.oram->Initialize(SequentialValues(8)).ok());  // only 8 of 32 mapped
  auto result = env.oram->ReadBatch({20});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RingOramTest, EvictionScheduleIsDeterministicPerEpochShape) {
  // Same batch structure => same number of evictions regardless of content.
  for (uint64_t seed : {1u, 2u}) {
    RingOramOptions opts;
    opts.parallel = true;
    opts.defer_writes = true;
    auto env = MakeOram(128, opts, 4, 64, seed);
    ASSERT_TRUE(env.oram->Initialize(SequentialValues(128)).ok());
    Rng rng(seed * 17);
    for (int b = 0; b < 3; ++b) {
      std::vector<BlockId> ids;
      while (ids.size() < 6) {
        BlockId id = rng.Uniform(128);
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
      ASSERT_TRUE(env.oram->ReadBatch(ids).ok());
    }
    ASSERT_TRUE(env.oram->WriteBatch({}, 6).ok());
    ASSERT_TRUE(env.oram->FinishEpoch().ok());
    // 3*6 + 6 = 24 accesses, A=3 -> exactly 8 evictions.
    EXPECT_EQ(env.oram->stats().evictions, 8u);
  }
}

TEST(RingOramTest, StatsCountLogicalAndPhysicalWork) {
  RingOramOptions opts;
  opts.parallel = true;
  opts.defer_writes = true;
  auto env = MakeOram(64, opts);
  ASSERT_TRUE(env.oram->Initialize(SequentialValues(64)).ok());
  env.oram->ResetStats();
  ASSERT_TRUE(env.oram->ReadBatch({1, 2, kInvalidBlockId}).ok());
  auto stats = env.oram->stats();
  EXPECT_EQ(stats.logical_accesses, 3u);
  EXPECT_GE(stats.physical_slot_reads, 3 * (env.config.num_levels - 1));
}

// ---------------------------------------------------------------------------
// Server-side XOR path reads
// ---------------------------------------------------------------------------

// The XOR read path is a pure transport optimization: with the same seed,
// the XOR and slot-by-slot executions must return identical values AND
// record identical adversary-visible traces (the same slots are touched;
// only the reply shrinks). Run the whole matrix: plain and authenticated.
TEST(RingOramXorReadTest, MatchesSlotReadsValueForValueAndTraceForTrace) {
  for (bool authenticated : {false, true}) {
    std::vector<std::vector<Bytes>> results;
    std::vector<std::vector<PhysicalOp>> traces;
    std::vector<uint64_t> xor_counts;
    for (bool use_xor : {false, true}) {
      RingOramOptions opts;
      opts.parallel = true;
      opts.defer_writes = true;
      opts.xor_path_reads = use_xor;
      opts.enable_trace = true;
      opts.io_threads = 8;
      OramTestEnv env;
      env.config = RingOramConfig::ForCapacity(64, 4, 64);
      env.config.authenticated = authenticated;
      env.store = std::make_shared<MemoryBucketStore>(env.config.num_buckets(),
                                                      env.config.slots_per_bucket());
      env.encryptor = std::make_shared<Encryptor>(
          Encryptor::FromMasterKey(BytesFromString("xor-key"), authenticated, 7));
      env.oram = std::make_unique<RingOram>(env.config, opts, env.store, env.encryptor, 7);
      ASSERT_TRUE(env.oram->Initialize(SequentialValues(64)).ok());

      std::vector<Bytes> got;
      for (int epoch = 0; epoch < 3; ++epoch) {
        // Real reads, repeats (stash-resident dummy paths), and padding
        // (pure dummy paths) all go through the XOR machinery.
        auto r1 = env.oram->ReadBatch({1, 9, 25, kInvalidBlockId});
        ASSERT_TRUE(r1.ok()) << r1.status().ToString();
        auto r2 = env.oram->ReadBatch({9, 40, kInvalidBlockId, kInvalidBlockId});
        ASSERT_TRUE(r2.ok()) << r2.status().ToString();
        got.insert(got.end(), r1->begin(), r1->end());
        got.insert(got.end(), r2->begin(), r2->end());
        Bytes v = BytesFromString("epoch-" + std::to_string(epoch));
        v.resize(64, 0);
        ASSERT_TRUE(env.oram->WriteBatch({{static_cast<BlockId>(epoch), v}}, 4).ok());
        ASSERT_TRUE(env.oram->FinishEpoch().ok());
      }
      EXPECT_TRUE(env.oram->CheckInvariants().ok());
      results.push_back(std::move(got));
      traces.push_back(env.oram->trace().Take());
      xor_counts.push_back(env.oram->stats().xor_path_reads);
    }
    EXPECT_EQ(results[0], results[1]) << "values diverge, authenticated=" << authenticated;
    EXPECT_EQ(traces[0], traces[1]) << "traces diverge, authenticated=" << authenticated;
    EXPECT_EQ(xor_counts[0], 0u);
    EXPECT_GT(xor_counts[1], 0u) << "XOR path never engaged";
  }
}

}  // namespace
}  // namespace obladi
