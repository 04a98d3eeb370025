// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Deploys the Obladi proxy over a memory-backed storage tier on loopback TCP
// (K = 4 shards, every program knob at its default except the §6.4 epoch
// parameters of each application), drives one of the paper's applications
// from a closed loop of 4 client threads, checks correctness, and prints one
// JSON result object as the last line of stdout.
//
// --trace 0: the end-to-end metrics, set-up repeated kSetupsPerRun times.
// --trace 1: one untraced run, then one traced run whose layer boundaries
//            (TransactionalKv, the BucketStore/LogStore above and below the
//            replication layer, and the storage node's backend below its
//            StorageServer) are wrapped in timing decorators; prints the
//            per-layer metrics, the tracing overhead, and the KV-boundary
//            latency breakdown.
//
// The storage tier is forked into its own process before any thread starts,
// so CPU and RSS are reported per tier.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/metrics.h"
#include "perfbench/src/storage_node.h"
#include "perfbench/src/timed_stores.h"
#include "src/common/rng.h"
#include "src/net/remote_store.h"
#include "src/net/replicated_store.h"
#include "src/proxy/obladi_store.h"
#include "src/workload/freehealth.h"
#include "src/workload/smallbank.h"

namespace perfbench {
namespace {

using obladi::ObladiConfig;
using obladi::ObladiStore;
using obladi::Status;
using obladi::StatusOr;

constexpr uint32_t kShards = 4;
constexpr size_t kClients = 4;
constexpr int kSetupsPerRun = 5;
constexpr double kWarmupSeconds = 3.0;
// A p95 is reported only when at least this many samples lie beyond it.
constexpr size_t kMinTailSamples = 10;
// Whole-run per-epoch counts of the traced and untraced runs must agree
// this closely (relative). They are not bit-equal between any two runs:
// Ring ORAM's evictions and early reshuffles (and the bucket writes and
// round trips they cause) follow random leaf choices and the access
// counter's phase at the first epoch; observed differences are below 0.1%.
constexpr double kCountTolerance = 0.01;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

// One benchmark workload: an application plus its §6.4 epoch parameters.
struct App {
  std::unique_ptr<obladi::Workload> workload;
  size_t read_batches = 0;      // R
  size_t read_batch_size = 0;   // b_read
  size_t write_batch_size = 0;  // b_write
  uint32_t replicas = 1;        // storage replicas per shard
};

std::optional<App> MakeApp(const std::string& name) {
  App app;
  if (name == "smallbank" || name == "smallbank_r2") {
    obladi::SmallBankConfig cfg;
    cfg.num_accounts = 20000;
    app.workload = std::make_unique<obladi::SmallBankWorkload>(cfg);
    app.read_batches = 8;
    app.read_batch_size = 64;
    app.write_batch_size = 160;
    app.replicas = name == "smallbank_r2" ? 2 : 1;
  } else if (name == "freehealth") {
    obladi::FreeHealthConfig cfg;
    cfg.num_patients = 2000;
    app.workload = std::make_unique<obladi::FreeHealthWorkload>(cfg);
    app.read_batches = 8;
    app.read_batch_size = 64;
    app.write_batch_size = 64;
  } else {
    return std::nullopt;
  }
  return app;
}

ObladiConfig MakeConfig(const App& app, uint64_t capacity, bool traced) {
  ObladiConfig cfg = ObladiConfig::ForCapacity(capacity, /*z=*/16, /*payload=*/512);
  cfg.num_shards = kShards;
  cfg.timed_mode = true;
  cfg.read_batches_per_epoch = app.read_batches;
  cfg.read_batch_size = app.read_batch_size;
  cfg.write_batch_size = app.write_batch_size;
  cfg.batch_interval_us = 300;
  cfg.obs.watchdog = traced;
  return cfg;
}

uint64_t CpuMicros() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000 +
         static_cast<uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// --- deployment --------------------------------------------------------------

// The WAL as the proxy sees it, minus its transport counters: forwards every
// LogStore call but reports no network_stats() and no per-replica stats, so
// the proxy's trace watchdog band-checks the bucket tier's wire bytes only.
// Its per-epoch band does not fit WAL traffic: every
// full_checkpoint_interval-th record is a full checkpoint (~4x a delta),
// and with a pipelined retirement an epoch's checkpoint append lands before
// or after the next epoch close, so per-epoch WAL samples read 0 or 2x.
// CheckWalShape checks the WAL record by record instead.
class UnbandedLogStore : public obladi::LogStore {
 public:
  explicit UnbandedLogStore(std::shared_ptr<obladi::LogStore> inner) : inner_(std::move(inner)) {}

  StatusOr<uint64_t> Append(obladi::Bytes record) override {
    return inner_->Append(std::move(record));
  }
  Status Sync() override { return inner_->Sync(); }
  StatusOr<uint64_t> AppendSync(obladi::Bytes record) override {
    return inner_->AppendSync(std::move(record));
  }
  StatusOr<std::vector<obladi::Bytes>> ReadAll() override { return inner_->ReadAll(); }
  Status Truncate(uint64_t upto_lsn) override { return inner_->Truncate(upto_lsn); }
  uint64_t NextLsn() const override { return inner_->NextLsn(); }

  obladi::ReplicationStats replication_stats() override {
    obladi::ReplicationStats stats = inner_->replication_stats();
    for (auto& replica : stats.replicas) {
      replica.stats = nullptr;
    }
    return stats;
  }
  void NoteEpochRetired(obladi::EpochId epoch) override { inner_->NoteEpochRetired(epoch); }
  Status TryHealReplicas() override { return inner_->TryHealReplicas(); }

 private:
  std::shared_ptr<obladi::LogStore> inner_;
};

struct Deployment {
  std::vector<std::shared_ptr<obladi::RemoteBucketStore>> bucket_clients;
  std::vector<std::shared_ptr<obladi::RemoteLogStore>> log_clients;
  std::vector<std::shared_ptr<obladi::ReplicatedBucketStore>> replicated_buckets;
  std::shared_ptr<obladi::ReplicatedLogStore> replicated_log;
  // Declared last: destroyed first, so no store goes away under the proxy.
  std::unique_ptr<ObladiStore> proxy;
};

struct WireTotals {
  uint64_t up = 0;
  uint64_t down = 0;
  uint64_t round_trips = 0;
};

// Every remote bucket and log store the benchmark constructed (replicated
// stores report no aggregate, so the sum runs over their replica clients).
WireTotals SumWire(const Deployment& d) {
  WireTotals t;
  auto add = [&t](obladi::NetworkStats& s) {
    t.up += s.bytes_sent.load();
    t.down += s.bytes_received.load();
    t.round_trips += s.round_trips.load();
  };
  for (const auto& c : d.bucket_clients) {
    add(c->stats());
  }
  for (const auto& c : d.log_clients) {
    add(c->stats());
  }
  return t;
}

// Storage tier up, connect, construct the proxy, Load() the initial database.
StatusOr<std::unique_ptr<Deployment>> Deploy(
    StorageNode& node, const ObladiConfig& cfg, uint32_t replicas, SpanLog* spans,
    const std::vector<std::pair<obladi::Key, std::string>>& records) {
  const bool traced = spans != nullptr;
  auto layout = cfg.MakeLayout();
  TierGeometry geometry;
  geometry.shards = cfg.num_shards;
  geometry.replicas = replicas;
  geometry.buckets_per_shard = layout.shard_config.num_buckets();
  geometry.slots_per_bucket = layout.shard_config.slots_per_bucket();
  geometry.traced = traced;
  auto ports = node.Up(geometry);
  if (!ports.ok()) {
    return ports.status();
  }
  auto d = std::make_unique<Deployment>();
  obladi::ReplicatedStoreOptions rep_opts;
  rep_opts.write_quorum = replicas;

  std::vector<std::shared_ptr<obladi::BucketStore>> shard_stores;
  for (uint32_t s = 0; s < cfg.num_shards; ++s) {
    std::vector<std::shared_ptr<obladi::BucketStore>> reps;
    for (uint32_t r = 0; r < replicas; ++r) {
      obladi::RemoteStoreOptions opts;
      opts.port = (*ports)[static_cast<size_t>(s) * replicas + r];
      auto client = obladi::RemoteBucketStore::Connect(opts);
      if (!client.ok()) {
        return client.status();
      }
      std::shared_ptr<obladi::RemoteBucketStore> remote = std::move(*client);
      d->bucket_clients.push_back(remote);
      std::shared_ptr<obladi::BucketStore> store = remote;
      if (traced) {
        store = std::make_shared<TimedBucketStore>(store, spans, "store");
      }
      reps.push_back(std::move(store));
    }
    std::shared_ptr<obladi::BucketStore> shard = reps.front();
    if (replicas > 1) {
      auto replicated = std::make_shared<obladi::ReplicatedBucketStore>(reps, rep_opts);
      d->replicated_buckets.push_back(replicated);
      shard = replicated;
    }
    if (traced) {
      shard = std::make_shared<TimedBucketStore>(shard, spans, "repl");
    }
    shard_stores.push_back(std::move(shard));
  }

  std::vector<std::shared_ptr<obladi::LogStore>> log_reps;
  for (uint32_t r = 0; r < replicas; ++r) {
    obladi::RemoteStoreOptions opts;
    opts.port = (*ports)[r];  // node (0, r) serves WAL replica r
    auto client = obladi::RemoteLogStore::Connect(opts);
    if (!client.ok()) {
      return client.status();
    }
    std::shared_ptr<obladi::RemoteLogStore> remote = std::move(*client);
    d->log_clients.push_back(remote);
    std::shared_ptr<obladi::LogStore> log = remote;
    if (traced) {
      log = std::make_shared<TimedLogStore>(log, spans, "wal");
    }
    log_reps.push_back(std::move(log));
  }
  std::shared_ptr<obladi::LogStore> log = log_reps.front();
  if (replicas > 1) {
    d->replicated_log = std::make_shared<obladi::ReplicatedLogStore>(log_reps, rep_opts);
    log = d->replicated_log;
  }
  if (traced) {
    log = std::make_shared<TimedLogStore>(log, spans, "repl");
  }
  if (cfg.obs.watchdog) {
    log = std::make_shared<UnbandedLogStore>(std::move(log));
  }

  d->proxy = std::make_unique<ObladiStore>(cfg, std::move(shard_stores), std::move(log));
  Status st = d->proxy->Load(records);
  if (!st.ok()) {
    return st;
  }
  return d;
}

Status Teardown(StorageNode& node, std::unique_ptr<Deployment> d) {
  d.reset();
  return node.Down();
}

// --- one measured run -----------------------------------------------------------

struct Snapshot {
  uint64_t ns = 0;
  uint64_t cpu_us = 0;
  obladi::ObladiStats proxy;
  obladi::MvtsoStats txn;
  obladi::RingOramStats oram;
  WireTotals wire;
};

Snapshot TakeSnapshot(Deployment& d) {
  Snapshot s;
  s.ns = NowNs();
  s.cpu_us = CpuMicros();
  s.proxy = d.proxy->stats();
  s.txn = d.proxy->txn_stats();
  s.oram = d.proxy->oram()->stats();
  s.wire = SumWire(d);
  return s;
}

struct RunResult {
  Snapshot load;   // after Load, before Start
  Snapshot start;  // measurement window start
  Snapshot end;    // measurement window end
  Snapshot final;  // after Stop + closing the last epoch + DrainRetirement
  TierReport tier_start;
  TierReport tier_end;
  double window_s = 0;
  double epochs_per_s = 0;
  // Proxy process memory, sampled through the window.
  std::vector<double> rss_mb;
  std::vector<double> heap_mb;
  std::vector<double> latencies_ms;  // committed in the window, retries included
  uint64_t committed = 0;
  uint64_t failed = 0;  // retries exhausted
  uint64_t fatal = 0;   // any other error (a gate fails on one anywhere in the run)
  uint64_t watchdog_violations = 0;
  uint64_t watchdog_epochs = 0;
  std::vector<std::string> gate_failures;

  uint64_t whole_epochs() const { return final.proxy.epochs - load.proxy.epochs; }
  double PerWholeEpoch(uint64_t count) const {
    return whole_epochs() == 0 ? 0 : static_cast<double>(count) / whole_epochs();
  }
  double round_trips_per_epoch() const {
    return PerWholeEpoch(final.wire.round_trips - load.wire.round_trips);
  }
  double accesses_per_epoch() const {
    return PerWholeEpoch(final.oram.logical_accesses - load.oram.logical_accesses);
  }
  double bucket_writes_per_epoch() const {
    return PerWholeEpoch(final.oram.physical_bucket_writes - load.oram.physical_bucket_writes);
  }
  double evictions_per_epoch() const {
    return PerWholeEpoch(final.oram.evictions - load.oram.evictions);
  }
  double txn_per_s() const { return window_s > 0 ? committed / window_s : 0; }
};

struct TxnRecord {
  uint64_t end_ns;
  uint64_t dur_ns;
  obladi::StatusCode code;
};

void CheckReplicas(const obladi::ReplicationStats& stats, const std::string& what,
                   std::vector<std::string>* failures) {
  if (stats.failovers != 0) {
    failures->push_back(what + ": " + std::to_string(stats.failovers) + " failovers");
  }
  for (const auto& replica : stats.replicas) {
    if (replica.health != obladi::ReplicaHealth::kCurrent) {
      failures->push_back(what + ": replica " + std::to_string(replica.index) + " is " +
                          obladi::ReplicaHealthName(replica.health));
    }
  }
}

RunResult RunClients(StorageNode& node, Deployment& d, obladi::Workload& workload,
                     obladi::TransactionalKv& kv, uint64_t seed, double seconds) {
  RunResult res;
  ObladiStore& proxy = *d.proxy;
  res.load = TakeSnapshot(d);
  proxy.Start();

  std::atomic<bool> running{true};
  std::vector<std::vector<TxnRecord>> records(kClients);
  std::vector<std::string> fatal_examples(kClients);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      obladi::Rng rng(seed * 1000003 + t);
      while (running.load(std::memory_order_relaxed)) {
        uint64_t t0 = NowNs();
        Status st = workload.RunOne(kv, rng);
        uint64_t t1 = NowNs();
        records[t].push_back({t1, t1 - t0, st.code()});
        if (!st.ok() && st.code() != obladi::StatusCode::kAborted &&
            fatal_examples[t].empty()) {
          fatal_examples[t] = st.ToString();
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  res.start = TakeSnapshot(d);
  auto tier_start = node.MarkWindowStart(res.start.ns);
  // Epoch closes are sampled while the window runs; the rate comes from the
  // first and last close inside it, so it does not quantize to whole epochs.
  const uint64_t window_end_ns = res.start.ns + static_cast<uint64_t>(seconds * 1e9);
  uint64_t last_epochs = res.start.proxy.epochs;
  uint64_t first_close_ns = 0, first_close_epochs = 0, last_close_ns = 0, last_close_epochs = 0;
  for (uint64_t tick = 0; NowNs() < window_end_ns; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (tick % 50 == 0) {
      res.rss_mb.push_back(CurrentRssMb());
      res.heap_mb.push_back(HeapInUseMb());
    }
    uint64_t epochs = proxy.stats().epochs;
    if (epochs != last_epochs) {
      uint64_t now = NowNs();
      if (first_close_ns == 0) {
        first_close_ns = now;
        first_close_epochs = epochs;
      }
      last_close_ns = now;
      last_close_epochs = epochs;
      last_epochs = epochs;
    }
  }
  res.end = TakeSnapshot(d);
  auto tier_end = node.MarkWindowEnd(res.end.ns);
  res.window_s = static_cast<double>(res.end.ns - res.start.ns) / 1e9;
  if (last_close_ns > first_close_ns) {
    res.epochs_per_s = static_cast<double>(last_close_epochs - first_close_epochs) /
                       (static_cast<double>(last_close_ns - first_close_ns) / 1e9);
  } else {
    res.epochs_per_s = static_cast<double>(res.end.proxy.epochs - res.start.proxy.epochs) /
                       res.window_s;
  }

  running.store(false);
  for (auto& c : clients) {
    c.join();
  }
  proxy.Stop();
  // Close the epoch the pacer left open so every counted epoch is whole.
  Status closed = proxy.CloseEpochNow();
  Status drained = proxy.DrainRetirement();
  res.final = TakeSnapshot(d);

  for (size_t t = 0; t < kClients; ++t) {
    for (const TxnRecord& r : records[t]) {
      if (r.end_ns < res.start.ns || r.end_ns > res.end.ns) {
        continue;
      }
      if (r.code == obladi::StatusCode::kOk) {
        ++res.committed;
        res.latencies_ms.push_back(static_cast<double>(r.dur_ns) / 1e6);
      } else if (r.code == obladi::StatusCode::kAborted) {
        ++res.failed;
      } else {
        ++res.fatal;
      }
    }
    if (!fatal_examples[t].empty()) {
      res.gate_failures.push_back("client saw a fatal proxy failure: " + fatal_examples[t]);
    }
  }

  // --- correctness gates ---
  if (!tier_start.ok() || !tier_end.ok()) {
    res.gate_failures.push_back("storage node report failed");
  } else {
    res.tier_start = *tier_start;
    res.tier_end = *tier_end;
  }
  if (!closed.ok() || !drained.ok()) {
    res.gate_failures.push_back("epoch close/drain failed: " +
                                (closed.ok() ? drained : closed).ToString());
  }
  Status invariants = proxy.oram()->CheckInvariants();
  if (!invariants.ok()) {
    res.gate_failures.push_back("ORAM invariants: " + invariants.ToString());
  }
  if (res.committed == 0) {
    res.gate_failures.push_back("no transaction committed in the window");
  }
  for (size_t s = 0; s < d.replicated_buckets.size(); ++s) {
    CheckReplicas(d.replicated_buckets[s]->replication_stats(),
                  "bucket shard " + std::to_string(s), &res.gate_failures);
  }
  if (d.replicated_log) {
    CheckReplicas(d.replicated_log->replication_stats(), "WAL", &res.gate_failures);
  }
  if (proxy.watchdog() != nullptr) {
    res.watchdog_violations = proxy.watchdog()->violations();
    res.watchdog_epochs = proxy.watchdog()->epochs_checked();
    if (res.watchdog_violations != 0) {
      for (const auto& v : proxy.watchdog()->recent_violations()) {
        std::fprintf(stderr, "watchdog violation: %s\n", v.c_str());
      }
      res.gate_failures.push_back("trace-shape watchdog reported " +
                                  std::to_string(res.watchdog_violations) + " violations");
    }
    if (res.watchdog_epochs == 0) {
      res.gate_failures.push_back("trace-shape watchdog checked no epoch");
    }
  }
  return res;
}

// Samples strictly above the p95; the p95 needs kMinTailSamples of them.
size_t TailSamples(const std::vector<double>& v, double p95) {
  return static_cast<size_t>(std::count_if(v.begin(), v.end(), [p95](double x) { return x > p95; }));
}

// --- reports -----------------------------------------------------------------

void AddEndToEnd(Report& report, const RunResult& r, double setup_s) {
  double committed = static_cast<double>(r.committed);
  uint64_t wire = (r.end.wire.up - r.start.wire.up) + (r.end.wire.down - r.start.wire.down);
  report.Add("setup_s", setup_s, "s");
  report.Add("txn_per_s", r.txn_per_s(), "txn/s");
  report.Add("txn_p50_ms", Quantile(r.latencies_ms, 0.50), "ms");
  report.Add("txn_p95_ms", Quantile(r.latencies_ms, 0.95), "ms");
  report.Add("commit_frac", committed / static_cast<double>(r.committed + r.failed + r.fatal),
             "ratio");
  report.Add("epochs_per_s", r.epochs_per_s, "1/s");
  report.Add("wire_kb_per_txn", static_cast<double>(wire) / 1024.0 / committed, "KB");
  report.Add("cpu_ms_per_txn", static_cast<double>(r.end.cpu_us - r.start.cpu_us) / 1e3 / committed,
             "ms");
  report.Add("proxy_heap_mb", Quantile(r.heap_mb, 0.5), "MB");
}

const char* const kStoreKinds[] = {"read_paths_xor", "read_slots", "write_buckets", "truncate"};

void AddPerLayer(Report& report, const App& app, const RunResult& traced,
                 const RunResult& untraced, const std::vector<Span>& spans,
                 const std::vector<std::string>& names) {
  const RunResult& r = traced;
  auto groups = GroupSpans(spans, names, r.start.ns, r.end.ns);
  auto group = [&groups](const std::string& name) -> const SpanGroup& {
    static const SpanGroup kEmpty;
    auto it = groups.find(name);
    return it == groups.end() ? kEmpty : it->second;
  };
  auto service = [&r](const std::string& kind) {
    auto it = r.tier_end.service.find(kind);
    return it == r.tier_end.service.end() ? ServiceTimes{} : it->second;
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const double window_epochs = r.epochs_per_s * r.window_s;
  const double window_us = r.window_s * 1e6;
  const double committed = static_cast<double>(r.committed);

  // txn (MVTSO)
  const obladi::MvtsoStats& m0 = r.start.txn;
  const obladi::MvtsoStats& m1 = r.end.txn;
  double commits = static_cast<double>(m1.committed - m0.committed);
  double wc = static_cast<double>(m1.aborts_write_conflict - m0.aborts_write_conflict);
  double cascade = static_cast<double>(m1.aborts_cascade - m0.aborts_cascade);
  double unfinished = static_cast<double>(m1.aborts_unfinished_epoch - m0.aborts_unfinished_epoch);
  double overflow = static_cast<double>(m1.aborts_batch_overflow - m0.aborts_batch_overflow);
  double expl = static_cast<double>(m1.aborts_explicit - m0.aborts_explicit);
  report.Add("txn.aborts_per_commit",
             ratio(wc + cascade + unfinished + overflow + expl, commits), "ratio");
  report.Add("txn.aborts.write_conflict_per_commit", ratio(wc, commits), "ratio");
  report.Add("txn.aborts.cascade_per_commit", ratio(cascade, commits), "ratio");
  report.Add("txn.aborts.unfinished_epoch_per_commit", ratio(unfinished, commits), "ratio");
  report.Add("txn.aborts.batch_overflow_per_commit", ratio(overflow, commits), "ratio");
  report.Add("txn.aborts.explicit_per_commit", ratio(expl, commits), "ratio");

  // proxy, at the KV boundary
  const SpanGroup& reads = group("kv.read");
  const SpanGroup& writes = group("kv.write");
  const SpanGroup& commit_calls = group("kv.commit");
  const SpanGroup& abort_calls = group("kv.abort");
  report.Add("kv.read_ms.p50", Quantile(reads.ms, 0.50), "ms");
  report.Add("kv.read_ms.p95", Quantile(reads.ms, 0.95), "ms");
  report.Add("kv.write_us.p50", Quantile(writes.ms, 0.50) * 1e3, "us");
  report.Add("kv.commit_ms.p50", Quantile(commit_calls.ms, 0.50), "ms");
  report.Add("kv.commit_ms.p95", Quantile(commit_calls.ms, 0.95), "ms");
  // Breakdown: mean txn latency = reads/txn x mean read + writes/txn x mean
  // write + commits/txn x mean commit + aborts/txn x mean abort + residual
  // (client CPU between calls and retry backoff). Per-txn counts include the
  // calls of aborted attempts.
  double mean_txn = Mean(r.latencies_ms);
  double reads_per_txn = ratio(reads.calls(), committed);
  double writes_per_txn = ratio(writes.calls(), committed);
  double commits_per_txn = ratio(commit_calls.calls(), committed);
  double aborts_per_txn = ratio(abort_calls.calls(), committed);
  double attributed = reads_per_txn * Mean(reads.ms) + writes_per_txn * Mean(writes.ms) +
                      commits_per_txn * Mean(commit_calls.ms) +
                      aborts_per_txn * Mean(abort_calls.ms);
  report.Add("kv.txn_mean_ms", mean_txn, "ms");
  report.Add("kv.reads_per_txn", reads_per_txn, "count");
  report.Add("kv.writes_per_txn", writes_per_txn, "count");
  report.Add("kv.commits_per_txn", commits_per_txn, "count");
  report.Add("kv.read_mean_ms", Mean(reads.ms), "ms");
  report.Add("kv.commit_mean_ms", Mean(commit_calls.ms), "ms");
  report.Add("kv.residual_ms", mean_txn - attributed, "ms");
  std::printf(
      "breakdown (ms per committed txn): %.3f = %.3f reads x %.3f + %.3f writes x %.4f + "
      "%.3f commits x %.3f + %.3f aborts x %.4f + residual %.3f\n",
      mean_txn, reads_per_txn, Mean(reads.ms), writes_per_txn, Mean(writes.ms), commits_per_txn,
      Mean(commit_calls.ms), aborts_per_txn, Mean(abort_calls.ms), mean_txn - attributed);

  const obladi::ObladiStats& p0 = r.start.proxy;
  const obladi::ObladiStats& p1 = r.end.proxy;
  double epochs_delta = static_cast<double>(p1.epochs - p0.epochs);
  double fetches = static_cast<double>(p1.oram_fetches - p0.oram_fetches);
  double hits = static_cast<double>(p1.cache_hits - p0.cache_hits);
  double dedups = static_cast<double>(p1.fetch_dedups - p0.fetch_dedups);
  report.Add("proxy.epoch_ms", ratio(1e3, r.epochs_per_s), "ms");
  report.Add("proxy.retire_stall_ms_per_epoch",
             ratio(static_cast<double>(p1.retire_stall_us - p0.retire_stall_us) / 1e3,
                   window_epochs),
             "ms");
  report.Add("proxy.overlapped_epoch_frac",
             ratio(static_cast<double>(p1.epochs_overlapped - p0.epochs_overlapped),
                   epochs_delta),
             "ratio");
  report.Add("proxy.batch_real_frac",
             ratio(fetches, static_cast<double>(app.read_batch_size) *
                                static_cast<double>(p1.read_batches - p0.read_batches)),
             "ratio");
  report.Add("proxy.cache_hit_frac", ratio(hits, hits + fetches + dedups), "ratio");
  report.Add("proxy.cpu_cores", static_cast<double>(r.end.cpu_us - r.start.cpu_us) / window_us,
             "cores");
  report.Add("proxy.rss_mb", Quantile(r.rss_mb, 0.5), "MB");
  report.Add("proxy.heap_peak_mb", Quantile(r.heap_mb, 1.0), "MB");

  // oram / shard: whole-run counts per whole epoch; times over the window
  const obladi::RingOramStats& o0 = r.start.oram;
  const obladi::RingOramStats& o1 = r.end.oram;
  uint64_t run_accesses = r.final.oram.logical_accesses - r.load.oram.logical_accesses;
  uint64_t run_slot_reads = r.final.oram.physical_slot_reads - r.load.oram.physical_slot_reads;
  report.Add("oram.accesses_per_epoch", r.accesses_per_epoch(), "count");
  report.Add("oram.slot_reads_per_access",
             ratio(static_cast<double>(run_slot_reads), static_cast<double>(run_accesses)),
             "count");
  report.Add("oram.bucket_writes_per_epoch", r.bucket_writes_per_epoch(), "count");
  report.Add("oram.evictions_per_epoch", r.evictions_per_epoch(), "count");
  report.Add("oram.materialize_ms_per_epoch",
             ratio(static_cast<double>(o1.materialize_us - o0.materialize_us) / 1e3, window_epochs),
             "ms");
  report.Add("oram.flush_plan_ms_per_epoch",
             ratio(static_cast<double>(o1.flush_plan_us - o0.flush_plan_us) / 1e3, window_epochs),
             "ms");

  // net: client side per kind, server side per kind, and the gap between
  for (const char* kind : kStoreKinds) {
    const SpanGroup& g = group(std::string("store.") + kind);
    std::string k = kind;
    report.Add("store." + k + ".ms.p50", Quantile(g.ms, 0.50), "ms");
    report.Add("store." + k + ".ms.p95", Quantile(g.ms, 0.95), "ms");
    report.Add("store." + k + ".calls_per_epoch", ratio(g.calls(), window_epochs), "count");
    report.Add("store." + k + ".items_per_call",
               ratio(static_cast<double>(g.items), static_cast<double>(g.calls())), "count");
  }
  for (const char* kind : kStoreKinds) {
    const ServiceTimes t = service(kind);
    report.Add(std::string("server.") + kind + ".service_us.p50", t.p50_us, "us");
    report.Add(std::string("server.") + kind + ".service_us.p95", t.p95_us, "us");
  }
  std::printf("RPC gap, client p50 - server service p50:");
  for (const char* kind : kStoreKinds) {
    const SpanGroup& g = group(std::string("store.") + kind);
    const ServiceTimes t = service(kind);
    double gap = Quantile(g.ms, 0.50) - t.p50_us / 1e3;
    report.Add(std::string("net.") + kind + ".gap_ms", gap, "ms");
    std::printf(" %s %.3f ms", kind, gap);
  }
  std::printf("\n");
  report.Add("net.round_trips_per_epoch", r.round_trips_per_epoch(), "count");
  report.Add("net.kb_up_per_epoch",
             r.PerWholeEpoch(r.final.wire.up - r.load.wire.up) / 1024.0, "KB");
  report.Add("net.kb_down_per_epoch",
             r.PerWholeEpoch(r.final.wire.down - r.load.wire.down) / 1024.0, "KB");

  // storage node
  report.Add("storage.cpu_cores",
             static_cast<double>(r.tier_end.cpu_us - r.tier_start.cpu_us) / window_us, "cores");
  report.Add("storage.rss_mb", r.tier_end.rss_mb, "MB");
  report.Add("storage.backend_ms_per_epoch", ratio(r.tier_end.backend_busy_ms, window_epochs),
             "ms");

  // recovery: the WAL as each log replica's client sees it
  const SpanGroup& wal = group("wal.append_sync");
  report.Add("wal.append_sync.calls_per_epoch", ratio(wal.calls(), window_epochs), "count");
  report.Add("wal.append_sync_ms.p50", Quantile(wal.ms, 0.50), "ms");
  report.Add("wal.append_sync_ms.p95", Quantile(wal.ms, 0.95), "ms");
  report.Add("wal.kb_per_epoch", ratio(static_cast<double>(wal.bytes) / 1024.0, window_epochs),
             "KB");

  // replication: the per-shard store and the WAL as the proxy sees them
  report.Add("repl.write_buckets.ms.p50", Quantile(group("repl.write_buckets").ms, 0.50), "ms");
  report.Add("repl.append_sync_ms.p50", Quantile(group("repl.append_sync").ms, 0.50), "ms");

  // tracing overhead and the obliviousness check
  std::printf("tracing overhead: traced %.2f txn/s vs untraced %.2f txn/s in this invocation\n",
              r.txn_per_s(), untraced.txn_per_s());
  report.Add("trace.txn_per_s", r.txn_per_s(), "txn/s");
  report.Add("trace.untraced_txn_per_s", untraced.txn_per_s(), "txn/s");
  report.Add("trace.txn_per_s_ratio", ratio(r.txn_per_s(), untraced.txn_per_s()), "ratio");
  report.Add("watchdog.violations", static_cast<double>(r.watchdog_violations), "count");
  report.Add("watchdog.epochs_checked", static_cast<double>(r.watchdog_epochs), "count");
}

// The traced run must issue the same per-epoch request shape as the
// untraced one: timing decorators may change when requests go out, never
// which requests go out.
void CompareCounts(const RunResult& traced, const RunResult& untraced,
                   std::vector<std::string>* failures) {
  struct Pair {
    const char* name;
    double traced, untraced;
  };
  const Pair pairs[] = {
      {"net.round_trips_per_epoch", traced.round_trips_per_epoch(),
       untraced.round_trips_per_epoch()},
      {"oram.accesses_per_epoch", traced.accesses_per_epoch(), untraced.accesses_per_epoch()},
      {"oram.bucket_writes_per_epoch", traced.bucket_writes_per_epoch(),
       untraced.bucket_writes_per_epoch()},
      {"oram.evictions_per_epoch", traced.evictions_per_epoch(), untraced.evictions_per_epoch()},
  };
  for (const Pair& p : pairs) {
    double rel = std::fabs(p.traced - p.untraced) / std::max(1e-9, std::fabs(p.untraced));
    std::printf("count check %-30s untraced %12.4f traced %12.4f (rel diff %.4f)\n", p.name,
                p.untraced, p.traced, rel);
    if (!(rel <= kCountTolerance)) {
      failures->push_back(std::string("traced run changed ") + p.name);
    }
  }
}

// The WAL's request shape, record by record as the proxy appends it: one
// checkpoint per epoch, a full one exactly every `interval` records from the
// first and deltas between, each class within `tolerance` of its median
// size. Full checkpoints are fixed-size; a delta carries the metadata of the
// buckets the epoch touched, which varies with Ring ORAM's stochastic
// evictions like the bucket tier's bytes do. As in the watchdog, the first
// `warmup` records (Load's epochs, which touch far more buckets) are not
// band-checked.
void CheckWalShape(const std::vector<Span>& spans, const std::vector<std::string>& names,
                   size_t interval, double tolerance, size_t warmup,
                   std::vector<std::string>* failures) {
  std::vector<std::pair<uint64_t, double>> appends;  // (start, record bytes)
  for (const Span& s : spans) {
    const std::string& name = names[s.name];
    if (name == "repl.append_sync" || name == "repl.append") {
      appends.emplace_back(s.start_ns, static_cast<double>(s.bytes));
    }
  }
  std::sort(appends.begin(), appends.end());
  std::vector<double> full, delta;
  for (size_t i = warmup; i < appends.size(); ++i) {
    (i % interval == 0 ? full : delta).push_back(appends[i].second);
  }
  if (full.size() < 2 || delta.empty()) {
    failures->push_back("WAL shape: only " + std::to_string(appends.size()) +
                        " checkpoint records");
    return;
  }
  size_t outside = 0;
  for (const std::vector<double>* sizes : {&full, &delta}) {
    double median = Quantile(*sizes, 0.5);
    outside += static_cast<size_t>(std::count_if(sizes->begin(), sizes->end(), [&](double b) {
      return b < median * (1 - tolerance) || b > median * (1 + tolerance);
    }));
  }
  std::printf(
      "WAL shape: %zu records; %zu full checkpoints (every %zu) %.0f..%.0f B; deltas "
      "%.0f..%.0f B, median %.0f B; %zu outside the +-%.0f%% band of their class\n",
      appends.size(), full.size(), interval, Quantile(full, 0), Quantile(full, 1.0),
      Quantile(delta, 0), Quantile(delta, 1.0), Quantile(delta, 0.5), outside, tolerance * 100);
  if (outside != 0) {
    failures->push_back("WAL shape: " + std::to_string(outside) +
                        " checkpoint records outside their size band");
  }
}

void PrintRun(const char* label, const RunResult& r) {
  std::printf(
      "%s: %.2f s window, %llu committed, %llu failed (retries exhausted), %llu fatal, "
      "%zu latency samples, %zu beyond p95, %.2f epochs/s, %llu whole epochs\n",
      label, r.window_s, static_cast<unsigned long long>(r.committed),
      static_cast<unsigned long long>(r.failed), static_cast<unsigned long long>(r.fatal),
      r.latencies_ms.size(), TailSamples(r.latencies_ms, Quantile(r.latencies_ms, 0.95)),
      r.epochs_per_s, static_cast<unsigned long long>(r.whole_epochs()));
  std::printf("%s: proxy over the window: RSS min %.1f median %.1f max %.1f MB, "
              "heap in use median %.1f max %.1f MB\n",
              label, Quantile(r.rss_mb, 0), Quantile(r.rss_mb, 0.5), Quantile(r.rss_mb, 1.0),
              Quantile(r.heap_mb, 0.5), Quantile(r.heap_mb, 1.0));
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n");
    return 2;
  }
  std::optional<App> app = MakeApp(args.workload);
  if (!app) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // Before any thread exists in this process.
  std::unique_ptr<StorageNode> node = StorageNode::Fork();
  if (node == nullptr) {
    std::fprintf(stderr, "could not fork the storage node\n");
    return 1;
  }

  auto records = app->workload->InitialRecords();
  // Headroom for keys created at runtime (orders, history rows, ...).
  uint64_t capacity = records.size() + records.size() / 2 + 4096;
  std::vector<std::string> failures;
  auto fail = [&failures](const std::string& what, const Status& st) {
    failures.push_back(what + ": " + st.ToString());
  };

  Report report;
  bool have_result = false;
  RunResult main_run;
  if (!args.trace) {
    ObladiConfig cfg = MakeConfig(*app, capacity, /*traced=*/false);
    // The first deployment serves the measured run; the later set-ups are
    // only timed, so no torn-down deployment's freed heap sits in the
    // measured process.
    std::vector<double> setups;
    for (int i = 0; i < kSetupsPerRun && failures.empty(); ++i) {
      uint64_t t0 = NowNs();
      auto d = Deploy(*node, cfg, app->replicas, nullptr, records);
      if (!d.ok()) {
        fail("setup", d.status());
        break;
      }
      setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (i == 0) {
        main_run = RunClients(*node, **d, *app->workload, *(*d)->proxy, args.seed, args.seconds);
        have_result = true;
        PrintRun("run", main_run);
        failures.insert(failures.end(), main_run.gate_failures.begin(),
                        main_run.gate_failures.end());
      }
      Status st = Teardown(*node, std::move(*d));
      if (!st.ok()) {
        fail("teardown", st);
      }
    }
    if (have_result) {
      std::printf("setup times:");
      for (double s : setups) {
        std::printf(" %.3f s", s);
      }
      uint64_t attempted = main_run.committed + main_run.failed + main_run.fatal;
      std::printf("\nfail_frac %.6f (%llu of %llu)\n",
                  static_cast<double>(main_run.failed + main_run.fatal) /
                      static_cast<double>(attempted),
                  static_cast<unsigned long long>(main_run.failed + main_run.fatal),
                  static_cast<unsigned long long>(attempted));
      size_t tail = TailSamples(main_run.latencies_ms, Quantile(main_run.latencies_ms, 0.95));
      if (tail < kMinTailSamples) {
        failures.push_back("only " + std::to_string(tail) + " samples beyond p95 (need " +
                           std::to_string(kMinTailSamples) + "); run longer");
      }
      AddEndToEnd(report, main_run, Quantile(setups, 0.5));
    }
  } else {
    RunResult untraced;
    {
      ObladiConfig cfg = MakeConfig(*app, capacity, /*traced=*/false);
      auto d = Deploy(*node, cfg, app->replicas, nullptr, records);
      if (!d.ok()) {
        fail("setup", d.status());
      } else {
        untraced = RunClients(*node, **d, *app->workload, *(*d)->proxy, args.seed, args.seconds);
        PrintRun("untraced run", untraced);
        failures.insert(failures.end(), untraced.gate_failures.begin(),
                        untraced.gate_failures.end());
        Status st = Teardown(*node, std::move(*d));
        if (!st.ok()) {
          fail("teardown", st);
        }
      }
    }
    SpanLog spans;
    if (failures.empty()) {
      ObladiConfig cfg = MakeConfig(*app, capacity, /*traced=*/true);
      auto d = Deploy(*node, cfg, app->replicas, &spans, records);
      if (!d.ok()) {
        fail("traced setup", d.status());
      } else {
        TimedKv kv(*(*d)->proxy, &spans);
        main_run = RunClients(*node, **d, *app->workload, kv, args.seed, args.seconds);
        PrintRun("traced run", main_run);
        failures.insert(failures.end(), main_run.gate_failures.begin(),
                        main_run.gate_failures.end());
        CompareCounts(main_run, untraced, &failures);
        std::vector<Span> recorded = spans.Snapshot();
        CheckWalShape(recorded, spans.names(), cfg.recovery.full_checkpoint_interval,
                      cfg.obs.watchdog_byte_tolerance, cfg.obs.watchdog_byte_warmup_epochs,
                      &failures);
        AddPerLayer(report, *app, main_run, untraced, recorded, spans.names());
        have_result = true;
        Status st = Teardown(*node, std::move(*d));
        if (!st.ok()) {
          fail("teardown", st);
        }
      }
    }
    auto backend = node->Finish();
    if (!backend.ok()) {
      fail("storage node", backend.status());
    } else if (!args.spans_path.empty()) {
      for (const auto& [name, span] : *backend) {
        Span s = span;
        s.name = spans.Intern(name);
        spans.Add(s);
      }
      if (!spans.WriteCsv(args.spans_path)) {
        failures.push_back("could not write spans to " + args.spans_path);
      }
    }
  }
  node.reset();

  if (!have_result) {
    for (const auto& f : failures) {
      std::fprintf(stderr, "perfbench: %s\n", f.c_str());
    }
    return 1;
  }
  report.Print();
  for (const auto& f : failures) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n", f.c_str());
  }
  std::printf("%s\n", report
                          .Json(failures.empty(), main_run.committed + main_run.failed + main_run.fatal,
                                main_run.failed + main_run.fatal)
                          .c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
