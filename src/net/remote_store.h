// Client half of the proxy <-> cloud-storage split: BucketStore and LogStore
// implementations that speak src/net/wire.h to a StorageServer over TCP.
//
// The remote stores ride on AsyncNetClient (src/net/async_client.h): one
// epoll event-loop thread multiplexes every outstanding RPC over
// `num_connections` sockets, pairing out-of-order responses by request id.
// Submission and completion are decoupled, so the epoch pipeline can keep
// hundreds of slot reads and bucket writes in flight without a thread per
// RPC — the real version of the overlap that LatencyBucketStore's
// calling-thread sleeps simulate, and the lever bench_net_storage sweeps.
// The stores answer SupportsAsyncBatches() and implement the *Async entry
// points as true submissions, which is what the parallel ORAM keys off.
//
// Failure model: a lost connection fails every RPC pending on it fast; the
// synchronous entry points then redial and retry once — except LogAppend,
// which stays at-most-once (the server may have appended before dying; a
// blind resend would duplicate the WAL record). A storage-node restart is
// therefore invisible to the ORAM above as long as the backend state
// survived (shadow-paged buckets + durable log — §8's recovery story).
// Async submissions do NOT retry: epoch-level recovery owns those failures.
#ifndef OBLADI_SRC_NET_REMOTE_STORE_H_
#define OBLADI_SRC_NET_REMOTE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/async_client.h"
#include "src/net/wire.h"
#include "src/storage/bucket_store.h"
#include "src/storage/latency_store.h"

namespace obladi {

struct RemoteStoreOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Multiplexed sockets for the async client. One connection already
  // carries hundreds of outstanding requests.
  size_t num_connections = 1;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Transport hardening knobs, passed through to AsyncClientOptions: 0
  // keeps the historical no-deadline / no-heartbeat behavior.
  uint64_t default_deadline_ms = 0;
  uint64_t heartbeat_interval_ms = 0;
  uint64_t heartbeat_timeout_ms = 1000;
  RetryPolicy retry;

  AsyncClientOptions ToAsyncOptions() const {
    AsyncClientOptions opts;
    opts.host = host;
    opts.port = port;
    opts.num_connections = num_connections;
    opts.max_frame_bytes = max_frame_bytes;
    opts.default_deadline_ms = default_deadline_ms;
    opts.heartbeat_interval_ms = heartbeat_interval_ms;
    opts.heartbeat_timeout_ms = heartbeat_timeout_ms;
    opts.retry = retry;
    return opts;
  }
};

class RemoteBucketStore : public BucketStore {
 public:
  // Dials the server and fetches num_buckets (cached: the tree's geometry
  // is immutable once deployed).
  static StatusOr<std::unique_ptr<RemoteBucketStore>> Connect(RemoteStoreOptions options);

  RemoteBucketStore(std::shared_ptr<AsyncNetClient> client, size_t num_buckets)
      : client_(std::move(client)), num_buckets_(num_buckets) {}

  StatusOr<Bytes> ReadSlot(BucketIndex bucket, uint32_t version, SlotIndex slot) override;
  Status WriteBucket(BucketIndex bucket, uint32_t version, std::vector<Bytes> slots) override;
  // One round trip for the whole batch — the wire protocol is natively
  // batched, so these do NOT fall back to the unary loop.
  std::vector<StatusOr<Bytes>> ReadSlotsBatch(const std::vector<SlotRef>& refs) override;
  Status WriteBucketsBatch(std::vector<BucketImage> images) override;
  Status TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) override;
  // kTruncateBucketsBatch: a whole epoch's GC in one round trip.
  Status TruncateBucketsBatch(const std::vector<TruncateRef>& refs) override;
  // kReadPathsXor: the real server-side reduction — one round trip whose
  // reply is headers + ONE body per path instead of every slot ciphertext.
  // Reply-shape violations this layer can see (wrong path count, header
  // bytes not matching the request's slot count) fail closed here with
  // IntegrityViolation; body sizing is validated by the ORAM's
  // reconstruction, which knows the ciphertext geometry.
  std::vector<StatusOr<PathXorResult>> ReadPathsXor(const std::vector<PathSlots>& paths,
                                                    uint32_t header_bytes,
                                                    uint32_t trailer_bytes) override;
  size_t num_buckets() const override { return num_buckets_; }

  // True submissions over the event loop: the call returns once the frame
  // is queued; `done` fires from the completion path. No retry — the epoch
  // pipeline's recovery machinery owns async failures.
  bool SupportsAsyncBatches() const override { return true; }
  void ReadSlotsBatchAsync(std::vector<SlotRef> refs, ReadSlotsDone done) override;
  void WriteBucketsBatchAsync(std::vector<BucketImage> images, WriteBucketsDone done) override;
  void ReadPathsXorAsync(std::vector<PathSlots> paths, uint32_t header_bytes,
                         uint32_t trailer_bytes, ReadPathsXorDone done) override;

  NetworkStats& stats() { return client_->stats(); }
  NetworkStats* network_stats() override { return &client_->stats(); }
  const std::shared_ptr<AsyncNetClient>& client() const { return client_; }

 private:
  std::shared_ptr<AsyncNetClient> client_;
  size_t num_buckets_;
};

class RemoteLogStore : public LogStore {
 public:
  static StatusOr<std::unique_ptr<RemoteLogStore>> Connect(RemoteStoreOptions options);

  explicit RemoteLogStore(std::shared_ptr<AsyncNetClient> client)
      : client_(std::move(client)) {}

  StatusOr<uint64_t> Append(Bytes record) override;
  Status Sync() override;
  // kLogAppendSync: append + sync in ONE round trip. At-most-once exactly
  // like Append — a transport failure leaves the record's fate unknown and
  // is never blindly retried.
  StatusOr<uint64_t> AppendSync(Bytes record) override;
  StatusOr<std::vector<Bytes>> ReadAll() override;
  Status Truncate(uint64_t upto_lsn) override;
  // Interface is const and infallible; this does an RPC and reports 0 if
  // the server is unreachable (callers treat NextLsn as advisory).
  uint64_t NextLsn() const override;

  NetworkStats& stats() { return client_->stats(); }
  NetworkStats* network_stats() override { return &client_->stats(); }
  const std::shared_ptr<AsyncNetClient>& client() const { return client_; }

 private:
  std::shared_ptr<AsyncNetClient> client_;
};

}  // namespace obladi

#endif  // OBLADI_SRC_NET_REMOTE_STORE_H_
