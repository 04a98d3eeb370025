// Latency-injecting decorators that model the paper's four storage backends
// (§11.2): dummy (0 latency), local server (0.3 ms), WAN server (10 ms), and
// DynamoDB (1 ms reads / 3 ms writes behind a blocking HTTP client pool).
//
// Latencies are injected on the calling thread, so concurrency behaves like a
// real remote store: N outstanding requests overlap if issued from N threads.
// `scale` lets benchmarks shrink all latencies proportionally so runs finish
// quickly while preserving relative shapes; scale=1.0 reproduces the paper's
// absolute latencies.
#ifndef OBLADI_SRC_STORAGE_LATENCY_STORE_H_
#define OBLADI_SRC_STORAGE_LATENCY_STORE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "src/storage/bucket_store.h"

namespace obladi {

struct LatencyProfile {
  std::string name = "dummy";
  uint64_t read_latency_us = 0;
  uint64_t write_latency_us = 0;
  // Max concurrently-served requests; 0 = unlimited. Models Dynamo's blocking
  // HTTP connection pool, which caps effective parallelism.
  size_t max_inflight = 0;
  // Per-direction link capacity in bytes/second; 0 = unlimited. When set,
  // each transfer reserves bytes/bandwidth of serialized time on that
  // direction's pipe — latency overlaps across concurrent requests,
  // bandwidth does not, exactly like a real (full-duplex) link. Download =
  // server->proxy (responses: slot ciphertexts), upload = proxy->server
  // (requests: bucket images). The directions are modeled separately
  // because they are separate resources in the cloud: egress (download) is
  // the direction providers meter and charge, and it is the one the XOR
  // path reads shrink — bench_xor_read caps it to show what the reduction
  // buys once round trips are already batched.
  uint64_t download_bandwidth_bytes_per_sec = 0;
  uint64_t upload_bandwidth_bytes_per_sec = 0;

  static LatencyProfile Dummy() { return LatencyProfile{"dummy", 0, 0, 0}; }
  static LatencyProfile LocalServer(double scale = 1.0) {
    return LatencyProfile{"server", Scale(300, scale), Scale(300, scale), 0};
  }
  static LatencyProfile WanServer(double scale = 1.0) {
    return LatencyProfile{"server_wan", Scale(10000, scale), Scale(10000, scale), 0};
  }
  static LatencyProfile Dynamo(double scale = 1.0) {
    return LatencyProfile{"dynamo", Scale(1000, scale), Scale(3000, scale), 64};
  }

 private:
  static uint64_t Scale(uint64_t us, double scale) {
    return static_cast<uint64_t>(static_cast<double>(us) * scale);
  }
};

// Request/byte accounting, shared by the latency decorators and the real
// remote stores (src/net/remote_store.h), so a bench can line the simulated
// wire traffic up against what actually crossed a socket.
//
// reads/writes count logical operations (slots read, buckets written);
// round_trips counts network round trips — a batched request is many logical
// operations but one round trip. bytes_read/bytes_written count payload
// bytes (slot ciphertexts, log records), not framing overhead.
//
// bytes_sent/bytes_received are charged at the *wire* layer — whole frames
// including headers and length prefixes, from the client's perspective — by
// the real transport (AsyncNetClient) and, as a model, by the
// latency decorators. They are what the bandwidth-capped link meters and
// what bench_xor_read reports, so bandwidth claims are measured on the same
// counter the real socket path charges.
struct NetworkStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> round_trips{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> bytes_received{0};
  // Real transport only: connections re-established after a failure.
  std::atomic<uint64_t> reconnects{0};
  // Requests that completed with kDeadlineExceeded (the connection is torn
  // down alongside, so stragglers cannot poison the socket).
  std::atomic<uint64_t> deadline_exceeded{0};
  // Call()-path resubmissions under the retry policy.
  std::atomic<uint64_t> retries{0};
  // Circuit-breaker closed->open (and half-open->open) transitions.
  std::atomic<uint64_t> breaker_open{0};
  // Application-level heartbeat pings sent / heartbeats whose deadline
  // expired (each failure tears the connection down).
  std::atomic<uint64_t> heartbeats_sent{0};
  std::atomic<uint64_t> heartbeat_failures{0};

  void Reset() {
    reads = 0;
    writes = 0;
    round_trips = 0;
    bytes_read = 0;
    bytes_written = 0;
    bytes_sent = 0;
    bytes_received = 0;
    reconnects = 0;
    deadline_exceeded = 0;
    retries = 0;
    breaker_open = 0;
    heartbeats_sent = 0;
    heartbeat_failures = 0;
  }
};

class LatencyBucketStore : public BucketStore {
 public:
  LatencyBucketStore(std::shared_ptr<BucketStore> base, LatencyProfile profile);

  StatusOr<Bytes> ReadSlot(BucketIndex bucket, uint32_t version, SlotIndex slot) override;
  Status WriteBucket(BucketIndex bucket, uint32_t version, std::vector<Bytes> slots) override;
  // Batched requests pay one round trip per max_inflight-sized wave (one
  // round trip total when in-flight requests are unlimited).
  std::vector<StatusOr<Bytes>> ReadSlotsBatch(const std::vector<SlotRef>& refs) override;
  Status WriteBucketsBatch(std::vector<BucketImage> images) override;
  Status TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) override;
  // One round trip for the whole GC batch, mirroring kTruncateBucketsBatch.
  Status TruncateBucketsBatch(const std::vector<TruncateRef>& refs) override;
  // Same latency/wave model as ReadSlotsBatch (the server still touches
  // every named slot), but the modeled download shrinks to headers + one
  // body per path — which is the entire point of kReadPathsXor.
  std::vector<StatusOr<PathXorResult>> ReadPathsXor(const std::vector<PathSlots>& paths,
                                                    uint32_t header_bytes,
                                                    uint32_t trailer_bytes) override;
  size_t num_buckets() const override { return base_->num_buckets(); }

  const NetworkStats& stats() const { return stats_; }
  NetworkStats& mutable_stats() { return stats_; }
  NetworkStats* network_stats() override { return &stats_; }
  const LatencyProfile& profile() const { return profile_; }

  // Disable latency injection temporarily (bulk loading in benchmarks).
  void SetBypass(bool bypass) { bypass_.store(bypass, std::memory_order_relaxed); }

 private:
  class InflightGuard;
  void AcquireSlot();
  void ReleaseSlot();
  // Reserve `bytes` of serialized time on one direction of the modeled
  // link (no-op when that direction is uncapped or bypass is on) and sleep
  // it out.
  enum class LinkDir { kUpload, kDownload };
  void ChargeLink(LinkDir dir, size_t bytes);

  std::shared_ptr<BucketStore> base_;
  LatencyProfile profile_;
  NetworkStats stats_;
  std::atomic<bool> bypass_{false};

  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  size_t inflight_ = 0;

  // Virtual clocks of the modeled full-duplex pipe: the time at which each
  // direction finishes draining previously reserved transfers.
  std::mutex link_mu_;
  uint64_t up_free_at_us_ = 0;
  uint64_t down_free_at_us_ = 0;
};

class LatencyLogStore : public LogStore {
 public:
  LatencyLogStore(std::shared_ptr<LogStore> base, LatencyProfile profile)
      : base_(std::move(base)), profile_(std::move(profile)) {}

  StatusOr<uint64_t> Append(Bytes record) override;
  Status Sync() override;
  // Fused form: ONE durable round trip instead of Append's + Sync's.
  StatusOr<uint64_t> AppendSync(Bytes record) override;
  StatusOr<std::vector<Bytes>> ReadAll() override;
  Status Truncate(uint64_t upto_lsn) override { return base_->Truncate(upto_lsn); }
  uint64_t NextLsn() const override { return base_->NextLsn(); }

  const NetworkStats& stats() const { return stats_; }
  NetworkStats* network_stats() override { return &stats_; }

 private:
  std::shared_ptr<LogStore> base_;
  LatencyProfile profile_;
  NetworkStats stats_;
};

}  // namespace obladi

#endif  // OBLADI_SRC_STORAGE_LATENCY_STORE_H_
