// Serializability audit subsystem tests: trace serde round trips, the
// verifier's violation taxonomy on hand-built histories, violation
// injection (the verifier's own self-test), the recorder's retry-interval
// semantics, and honest end-to-end runs against the real pipelined proxy.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/audit/audit_workload.h"
#include "src/audit/history.h"
#include "src/audit/recorder.h"
#include "src/audit/verifier.h"
#include "src/proxy/obladi_store.h"
#include "src/storage/memory_store.h"
#include "src/workload/driver.h"

namespace obladi {
namespace {

// --- hand-built history helpers ---------------------------------------------

TxnTraceRecord MakeTxn(Timestamp ts, TxnOutcome outcome, uint64_t invoke,
                       uint64_t response, uint32_t client = 0) {
  TxnTraceRecord txn;
  txn.ts = ts;
  txn.client = client;
  txn.invoke_us = invoke;
  txn.response_us = response;
  txn.outcome = outcome;
  return txn;
}

void ReadSaw(TxnTraceRecord& txn, const Key& key, const std::string& value) {
  txn.reads.push_back({key, true, value});
}

void ReadMissed(TxnTraceRecord& txn, const Key& key) {
  txn.reads.push_back({key, false, ""});
}

void Wrote(TxnTraceRecord& txn, const Key& key, const std::string& value) {
  txn.writes.emplace_back(key, value);
}

bool HasViolation(const AuditReport& report, ViolationKind kind) {
  for (const Violation& v : report.violations) {
    if (v.kind == kind) {
      return true;
    }
  }
  return false;
}

// --- trace serde -------------------------------------------------------------

TEST(AuditHistoryTest, TraceRoundTripsThroughBytes) {
  std::vector<TxnTraceRecord> txns;
  TxnTraceRecord a = MakeTxn(7, TxnOutcome::kCommitted, 100, 230, 3);
  ReadSaw(a, "x", "v7:x");
  ReadMissed(a, "zzz");
  Wrote(a, "x", "v7:x2");
  txns.push_back(a);
  txns.push_back(MakeTxn(9, TxnOutcome::kAborted, 240, 250, 3));

  Bytes encoded = EncodeTrace(3, txns, {{"x", "init"}});
  History decoded;
  ASSERT_TRUE(DecodeTrace(encoded, decoded).ok());
  ASSERT_EQ(decoded.txns.size(), 2u);
  EXPECT_EQ(decoded.txns[0], txns[0]);
  EXPECT_EQ(decoded.txns[1], txns[1]);
  ASSERT_EQ(decoded.initial.size(), 1u);
  EXPECT_EQ(decoded.initial[0].first, "x");
}

TEST(AuditHistoryTest, TruncatedTraceIsRejected) {
  std::vector<TxnTraceRecord> txns;
  TxnTraceRecord a = MakeTxn(7, TxnOutcome::kCommitted, 100, 230);
  ReadSaw(a, "key-with-some-length", "value-with-some-length");
  txns.push_back(a);
  Bytes encoded = EncodeTrace(0, txns, {});
  encoded.resize(encoded.size() - 5);
  History decoded;
  EXPECT_FALSE(DecodeTrace(encoded, decoded).ok());
  History garbage;
  EXPECT_FALSE(DecodeTrace(BytesFromString("not a trace"), garbage).ok());
}

TEST(AuditHistoryTest, WriteTracesAndLoadHistoryRoundTrip) {
  HistoryRecorder recorder(2);
  recorder.RecordInitialDb({{"x", "init:x"}});
  recorder.Client(0).OpenTxn(5, 100);
  recorder.Client(0).AddRead(5, "x", true, "init:x");
  recorder.Client(0).AddWrite(5, "x", "v5:x");
  recorder.Client(0).CloseTxn(5, TxnOutcome::kCommitted, 180);
  recorder.Client(1).OpenTxn(6, 120);
  recorder.Client(1).CloseTxn(6, TxnOutcome::kAborted, 140);

  std::string dir = testing::TempDir() + "/obladi_audit_roundtrip";
  auto bytes = recorder.WriteTraces(dir);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(*bytes, recorder.TraceBytes());

  auto loaded = LoadHistory(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->txns.size(), 2u);
  EXPECT_EQ(loaded->txns[0].ts, 5u);        // merged in timestamp order
  EXPECT_EQ(loaded->txns[0].client, 0u);
  EXPECT_EQ(loaded->txns[1].client, 1u);
  ASSERT_EQ(loaded->initial.size(), 1u);

  auto report = VerifyHistory(*loaded);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->serializable);
}

// --- verifier taxonomy -------------------------------------------------------

TEST(AuditVerifierTest, HonestHistoryIsSerializable) {
  History h;
  h.initial = {{"x", "init:x"}, {"y", "init:y"}};
  TxnTraceRecord w = MakeTxn(10, TxnOutcome::kCommitted, 100, 200);
  ReadSaw(w, "x", "init:x");
  Wrote(w, "x", "v10:x");
  TxnTraceRecord r = MakeTxn(20, TxnOutcome::kCommitted, 210, 300);
  ReadSaw(r, "x", "v10:x");
  ReadMissed(r, "nokey");
  h.txns = {w, r};

  auto report = VerifyHistory(h);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->serializable) << report->Summary();
  EXPECT_EQ(report->committed, 2u);
  EXPECT_EQ(report->reads_checked, 3u);
  EXPECT_GT(report->graph_edges, 0u);
}

TEST(AuditVerifierTest, FlagsStaleRead) {
  History h;
  h.initial = {{"x", "init:x"}};
  TxnTraceRecord w = MakeTxn(10, TxnOutcome::kCommitted, 100, 200);
  Wrote(w, "x", "v10:x");
  TxnTraceRecord r = MakeTxn(20, TxnOutcome::kCommitted, 210, 300);
  ReadSaw(r, "x", "init:x");  // should have seen v10:x
  h.txns = {w, r};
  auto report = VerifyHistory(h);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->serializable);
  EXPECT_TRUE(HasViolation(*report, ViolationKind::kStaleRead)) << report->Summary();
}

TEST(AuditVerifierTest, FlagsNotFoundStaleRead) {
  History h;
  h.initial = {{"x", "init:x"}};
  TxnTraceRecord r = MakeTxn(20, TxnOutcome::kCommitted, 210, 300);
  ReadMissed(r, "x");  // the key exists in the initial image
  h.txns = {r};
  auto report = VerifyHistory(h);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(HasViolation(*report, ViolationKind::kStaleRead));
}

TEST(AuditVerifierTest, FlagsFutureRead) {
  History h;
  h.initial = {{"x", "init:x"}};
  TxnTraceRecord r = MakeTxn(20, TxnOutcome::kCommitted, 100, 200);
  ReadSaw(r, "x", "v30:x");  // a write with a larger claimed timestamp
  TxnTraceRecord w = MakeTxn(30, TxnOutcome::kCommitted, 110, 210);
  Wrote(w, "x", "v30:x");
  h.txns = {r, w};
  auto report = VerifyHistory(h);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(HasViolation(*report, ViolationKind::kFutureRead)) << report->Summary();
}

TEST(AuditVerifierTest, FlagsDirtyRead) {
  History h;
  TxnTraceRecord w = MakeTxn(10, TxnOutcome::kAborted, 100, 200);
  Wrote(w, "x", "v10:x");
  TxnTraceRecord r = MakeTxn(20, TxnOutcome::kCommitted, 210, 300);
  ReadSaw(r, "x", "v10:x");
  h.txns = {w, r};
  auto report = VerifyHistory(h);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(HasViolation(*report, ViolationKind::kDirtyRead));
}

TEST(AuditVerifierTest, FlagsCorruptRead) {
  History h;
  TxnTraceRecord r = MakeTxn(20, TxnOutcome::kCommitted, 210, 300);
  ReadSaw(r, "x", "out-of-thin-air");
  h.txns = {r};
  auto report = VerifyHistory(h);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(HasViolation(*report, ViolationKind::kCorruptRead));
}

TEST(AuditVerifierTest, FlagsCycleWithMinimalWitness) {
  // A and B each observe the other's write: wr edges both ways, a cycle no
  // serial order can satisfy.
  History h;
  h.initial = {{"x", "init:x"}, {"y", "init:y"}};
  TxnTraceRecord a = MakeTxn(10, TxnOutcome::kCommitted, 100, 200);
  ReadSaw(a, "x", "v20:x");  // B's write
  Wrote(a, "y", "v10:y");
  TxnTraceRecord b = MakeTxn(20, TxnOutcome::kCommitted, 110, 210);
  ReadSaw(b, "y", "v10:y");  // A's write
  Wrote(b, "x", "v20:x");
  h.txns = {a, b};
  auto report = VerifyHistory(h);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->serializable);
  ASSERT_TRUE(HasViolation(*report, ViolationKind::kCycle)) << report->Summary();
  for (const Violation& v : report->violations) {
    if (v.kind == ViolationKind::kCycle) {
      EXPECT_EQ(v.cycle.size(), 2u) << v.ToString();  // minimal: two wr edges
    }
  }
}

TEST(AuditVerifierTest, FlagsRealTimeViolation) {
  // ts=20 was acked before ts=10 was even invoked: the claimed order
  // contradicts real time (what a fractured epoch visibility would produce).
  History h;
  h.txns = {MakeTxn(20, TxnOutcome::kCommitted, 100, 200),
            MakeTxn(10, TxnOutcome::kCommitted, 300, 310)};
  auto report = VerifyHistory(h);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->serializable);
  EXPECT_TRUE(HasViolation(*report, ViolationKind::kRealTime));
  // Overlapping intervals in either order are fine.
  History ok;
  ok.txns = {MakeTxn(20, TxnOutcome::kCommitted, 100, 300),
             MakeTxn(10, TxnOutcome::kCommitted, 200, 400)};
  auto ok_report = VerifyHistory(ok);
  ASSERT_TRUE(ok_report.ok());
  EXPECT_TRUE(ok_report->serializable);
}

TEST(AuditVerifierTest, IndeterminateOutcomeIsAdjudicatedByReaders) {
  // W's commit ack was lost. A committed reader observed its write, so W
  // must have committed (MVTSO cascades make the reader's commit proof).
  History h;
  TxnTraceRecord w = MakeTxn(10, TxnOutcome::kIndeterminate, 100, 200);
  Wrote(w, "x", "v10:x");
  TxnTraceRecord r = MakeTxn(20, TxnOutcome::kCommitted, 210, 300);
  ReadSaw(r, "x", "v10:x");
  h.txns = {w, r};
  auto report = VerifyHistory(h);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->serializable) << report->Summary();
  EXPECT_EQ(report->inferred_committed, 1u);

  // Unobserved, the same transaction stays excluded — readers seeing the
  // older version are not punished for a write that may never have landed.
  History h2;
  h2.initial = {{"x", "init:x"}};
  TxnTraceRecord w2 = MakeTxn(10, TxnOutcome::kIndeterminate, 100, 200);
  Wrote(w2, "x", "v10:x");
  TxnTraceRecord r2 = MakeTxn(20, TxnOutcome::kCommitted, 210, 300);
  ReadSaw(r2, "x", "init:x");
  h2.txns = {w2, r2};
  auto report2 = VerifyHistory(h2);
  ASSERT_TRUE(report2.ok());
  EXPECT_TRUE(report2->serializable) << report2->Summary();
  EXPECT_EQ(report2->indeterminate, 1u);
}

TEST(AuditVerifierTest, AmbiguousDuplicateWritesAreUnauditable) {
  History h;
  TxnTraceRecord a = MakeTxn(10, TxnOutcome::kCommitted, 100, 200);
  Wrote(a, "x", "same-value");
  TxnTraceRecord b = MakeTxn(20, TxnOutcome::kCommitted, 210, 300);
  Wrote(b, "x", "same-value");
  h.txns = {a, b};
  auto report = VerifyHistory(h);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// --- violation injection (self-test) ----------------------------------------

// A small honest history rich enough for every injection class: a chain of
// committed writers and readers over two keys, plus abort noise.
History RichHonestHistory() {
  History h;
  h.initial = {{"x", "init:x"}, {"y", "init:y"}};
  TxnTraceRecord w1 = MakeTxn(10, TxnOutcome::kCommitted, 100, 200, 0);
  ReadSaw(w1, "x", "init:x");
  Wrote(w1, "x", "v10:x");
  TxnTraceRecord r1 = MakeTxn(20, TxnOutcome::kCommitted, 210, 300, 1);
  ReadSaw(r1, "x", "v10:x");
  ReadSaw(r1, "y", "init:y");
  TxnTraceRecord w2 = MakeTxn(30, TxnOutcome::kCommitted, 310, 400, 0);
  ReadSaw(w2, "x", "v10:x");
  Wrote(w2, "x", "v30:x");
  Wrote(w2, "y", "v30:y");
  TxnTraceRecord r2 = MakeTxn(40, TxnOutcome::kCommitted, 410, 500, 1);
  ReadSaw(r2, "x", "v30:x");
  ReadSaw(r2, "y", "v30:y");
  TxnTraceRecord noise = MakeTxn(35, TxnOutcome::kAborted, 330, 340, 2);
  Wrote(noise, "y", "v35:y");
  h.txns = {w1, r1, w2, r2, noise};
  return h;
}

TEST(AuditInjectionTest, HonestBaselinePasses) {
  History h = RichHonestHistory();
  auto report = VerifyHistory(h);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->serializable) << report->Summary();
}

class AuditInjectionClassTest : public testing::TestWithParam<InjectKind> {};

TEST_P(AuditInjectionClassTest, InjectedViolationIsFlagged) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    History h = RichHonestHistory();
    auto mutation = InjectViolation(h, GetParam(), seed);
    ASSERT_TRUE(mutation.ok()) << mutation.status().ToString();
    auto report = VerifyHistory(h);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report->serializable)
        << "seed " << seed << ": " << *mutation << " slipped through";
    bool expected_kind = false;
    for (ViolationKind kind : ExpectedViolationsFor(GetParam())) {
      expected_kind = expected_kind || HasViolation(*report, kind);
    }
    EXPECT_TRUE(expected_kind) << "seed " << seed << ": " << report->Summary();
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, AuditInjectionClassTest,
                         testing::Values(InjectKind::kDropCommittedWrite,
                                         InjectKind::kSwapReadResults,
                                         InjectKind::kFractureEpoch),
                         [](const testing::TestParamInfo<InjectKind>& info) {
                           return InjectKindName(info.param);
                         });

// --- recorder semantics ------------------------------------------------------

// A store whose first commit attempt aborts: the retry path must record the
// *final* attempt's interval, not the first invocation's — otherwise every
// retried transaction would carry a spuriously wide real-time interval.
class FlakyCommitKv : public TransactionalKv {
 public:
  Timestamp Begin() override { return next_ts_++; }
  StatusOr<std::string> Read(Timestamp, const Key&) override {
    return Status::NotFound("empty store");
  }
  Status Write(Timestamp, const Key&, std::string) override { return Status::Ok(); }
  Status Commit(Timestamp) override {
    if (!failed_once_) {
      failed_once_ = true;
      return Status::Aborted("epoch aborted");
    }
    return Status::Ok();
  }
  void Abort(Timestamp) override {}

 private:
  Timestamp next_ts_ = 1;
  bool failed_once_ = false;
};

TEST(AuditRecorderTest, RetryRecordsFinalAttemptInterval) {
  FlakyCommitKv flaky;
  ClientHistory history(0);
  RecordingKv kv(flaky, history);
  Status st = RunTransaction(kv, [](Txn& txn) -> Status {
    return txn.Write("x", "v" + std::to_string(txn.ts()) + ":x");
  });
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(history.records().size(), 2u);
  const TxnTraceRecord& first = history.records()[0];
  const TxnTraceRecord& final = history.records()[1];
  // The failed attempt's ack never arrived: indeterminate, not committed.
  EXPECT_EQ(first.outcome, TxnOutcome::kIndeterminate);
  EXPECT_EQ(final.outcome, TxnOutcome::kCommitted);
  EXPECT_NE(first.ts, final.ts);
  // The committed record's interval belongs entirely to the final attempt.
  EXPECT_GT(final.invoke_us, first.response_us);
  EXPECT_GE(final.response_us, final.invoke_us);
}

TEST(AuditRecorderTest, OutcomeAccounting) {
  FlakyCommitKv flaky;
  HistoryRecorder recorder(1);
  RecordingKv kv(flaky, recorder.Client(0));
  Timestamp t1 = kv.Begin();
  ASSERT_TRUE(kv.Write(t1, "x", "v1").ok());
  EXPECT_FALSE(kv.Commit(t1).ok());  // first commit fails -> indeterminate
  Timestamp t2 = kv.Begin();
  kv.Abort(t2);  // explicit abort before commit -> definite abort
  Timestamp t3 = kv.Begin();
  ASSERT_TRUE(kv.Commit(t3).ok());

  auto totals = recorder.totals();
  EXPECT_EQ(totals.attempts, 3u);
  EXPECT_EQ(totals.committed, 1u);
  EXPECT_EQ(totals.aborted, 1u);
  EXPECT_EQ(totals.indeterminate, 1u);
}

// --- honest end-to-end runs against the real proxy ---------------------------

struct HonestRunParam {
  uint32_t shards;
  double zipf_theta;
};

class AuditHonestRunTest : public testing::TestWithParam<HonestRunParam> {};

TEST_P(AuditHonestRunTest, PipelinedProxyHistoryAuditsClean) {
  ObladiConfig config = ObladiConfig::ForCapacity(256, /*z=*/4, /*payload=*/128);
  config.num_shards = GetParam().shards;
  config.read_batches_per_epoch = 8;
  config.read_batch_size = 64;
  config.write_batch_size = 160;
  config.batch_interval_us = 300;
  config.timed_mode = true;
  config.recovery.enabled = false;
  config.oram_options.io_threads = 8;

  auto store = std::make_shared<MemoryBucketStore>(
      config.StoreBuckets(), config.MakeLayout().shard_config.slots_per_bucket());
  ObladiStore proxy(config, store, nullptr);

  AuditWorkloadConfig wl_cfg;
  wl_cfg.num_keys = 192;
  wl_cfg.zipf_theta = GetParam().zipf_theta;
  AuditWorkload workload(wl_cfg);
  auto initial = workload.InitialRecords();
  ASSERT_TRUE(proxy.Load(initial).ok());

  HistoryRecorder recorder(8);
  recorder.RecordInitialDb(initial);
  proxy.Start();

  DriverOptions opts;
  opts.num_threads = 8;
  opts.duration_ms = 300;
  opts.warmup_ms = 100;
  opts.recorder = &recorder;
  DriverResult result = RunWorkload(proxy, workload, opts);
  proxy.Stop();

  EXPECT_GT(result.committed, 0u);
  EXPECT_GT(result.attempts, 0u);
  EXPECT_GT(result.audit_trace_bytes, 0u);

  auto report = VerifyHistory(recorder.Merge());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->serializable) << report->Summary();
  EXPECT_GT(report->committed, 0u);
  EXPECT_GT(report->reads_checked, 0u);

  // The proxy-side abort/retry accounting is populated and consistent.
  ObladiStats stats = proxy.stats();
  EXPECT_GT(stats.txn_begun, 0u);
  EXPECT_GT(stats.txn_committed, 0u);
  EXPECT_EQ(stats.txn_begun, result.attempts);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndSkew, AuditHonestRunTest,
    testing::Values(HonestRunParam{1, 0.0}, HonestRunParam{1, 0.9},
                    HonestRunParam{4, 0.0}, HonestRunParam{4, 0.9}),
    [](const testing::TestParamInfo<HonestRunParam>& info) {
      return "K" + std::to_string(info.param.shards) +
             (info.param.zipf_theta > 0 ? "_zipf" : "_uniform");
    });

}  // namespace
}  // namespace obladi
