// Timing decorators for the three layer boundaries the benchmark traces:
// TransactionalKv (client -> proxy), BucketStore and LogStore (proxy ->
// transport, and StorageServer -> backend on the storage node).
//
// Each decorator forwards every entry point of the wrapped object —
// including the async batch forms, SupportsAsyncBatches(), network_stats()
// and the replication hooks — so wrapping changes timing only, never which
// code path the layer above takes (RingOram picks its sync or async
// dispatch off SupportsAsyncBatches; the trace watchdog finds per-replica
// byte sources through replication_stats()/network_stats()).
//
// Spans go to an in-memory SpanLog and are written out when the run ends.
#ifndef PERFBENCH_SRC_TIMED_STORES_H_
#define PERFBENCH_SRC_TIMED_STORES_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/bucket_store.h"
#include "src/txn/kv_interface.h"

namespace perfbench {

struct Span {
  uint32_t name = 0;   // index into SpanLog::names()
  uint32_t items = 0;  // refs / paths / images / truncates in the call
  uint64_t bytes = 0;  // record bytes (log appends)
  uint64_t txn = 0;    // transaction handle (kv spans), else 0
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class SpanLog {
 public:
  // Name ids are stable for the log's lifetime; call before recording.
  uint32_t Intern(const std::string& name);
  void Add(const Span& span);

  std::vector<Span> Snapshot() const;
  std::vector<std::string> names() const;
  // One "name,start_ns,end_ns,txn,items,bytes" line per span.
  bool WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

uint64_t NowNs();

class TimedBucketStore : public obladi::BucketStore {
 public:
  // Spans are named "<prefix>.<kind>", kind one of read_paths_xor,
  // read_slots, write_buckets, truncate.
  TimedBucketStore(std::shared_ptr<obladi::BucketStore> inner, SpanLog* log,
                   const std::string& prefix);

  obladi::StatusOr<obladi::Bytes> ReadSlot(obladi::BucketIndex bucket, uint32_t version,
                                           obladi::SlotIndex slot) override;
  obladi::Status WriteBucket(obladi::BucketIndex bucket, uint32_t version,
                             std::vector<obladi::Bytes> slots) override;
  std::vector<obladi::StatusOr<obladi::Bytes>> ReadSlotsBatch(
      const std::vector<obladi::SlotRef>& refs) override;
  obladi::Status WriteBucketsBatch(std::vector<obladi::BucketImage> images) override;
  obladi::Status TruncateBucket(obladi::BucketIndex bucket, uint32_t keep_from_version) override;
  obladi::Status TruncateBucketsBatch(const std::vector<obladi::TruncateRef>& refs) override;
  std::vector<obladi::StatusOr<obladi::PathXorResult>> ReadPathsXor(
      const std::vector<obladi::PathSlots>& paths, uint32_t header_bytes,
      uint32_t trailer_bytes) override;

  bool SupportsAsyncBatches() const override { return inner_->SupportsAsyncBatches(); }
  void ReadSlotsBatchAsync(std::vector<obladi::SlotRef> refs, ReadSlotsDone done) override;
  void WriteBucketsBatchAsync(std::vector<obladi::BucketImage> images,
                              WriteBucketsDone done) override;
  void ReadPathsXorAsync(std::vector<obladi::PathSlots> paths, uint32_t header_bytes,
                         uint32_t trailer_bytes, ReadPathsXorDone done) override;

  size_t num_buckets() const override { return inner_->num_buckets(); }
  obladi::NetworkStats* network_stats() override { return inner_->network_stats(); }
  obladi::ReplicationStats replication_stats() override { return inner_->replication_stats(); }
  void NoteEpochRetired(obladi::EpochId epoch) override { inner_->NoteEpochRetired(epoch); }
  obladi::Status TryHealReplicas() override { return inner_->TryHealReplicas(); }

 private:
  void Record(uint32_t name, uint64_t start_ns, size_t items);

  std::shared_ptr<obladi::BucketStore> inner_;
  SpanLog* log_;
  uint32_t read_xor_, read_slots_, write_, truncate_;
};

class TimedLogStore : public obladi::LogStore {
 public:
  // Spans "<prefix>.append_sync", ".append", ".sync", ".truncate",
  // ".read_all"; appends carry the record size.
  TimedLogStore(std::shared_ptr<obladi::LogStore> inner, SpanLog* log,
                const std::string& prefix);

  obladi::StatusOr<uint64_t> Append(obladi::Bytes record) override;
  obladi::Status Sync() override;
  obladi::StatusOr<uint64_t> AppendSync(obladi::Bytes record) override;
  obladi::StatusOr<std::vector<obladi::Bytes>> ReadAll() override;
  obladi::Status Truncate(uint64_t upto_lsn) override;
  uint64_t NextLsn() const override { return inner_->NextLsn(); }

  obladi::NetworkStats* network_stats() override { return inner_->network_stats(); }
  obladi::ReplicationStats replication_stats() override { return inner_->replication_stats(); }
  void NoteEpochRetired(obladi::EpochId epoch) override { inner_->NoteEpochRetired(epoch); }
  obladi::Status TryHealReplicas() override { return inner_->TryHealReplicas(); }

 private:
  std::shared_ptr<obladi::LogStore> inner_;
  SpanLog* log_;
  uint32_t append_sync_, append_, sync_, truncate_, read_all_;
};

// Times Read / Write / Commit / Abort (spans "kv.read", "kv.write",
// "kv.commit", "kv.abort"), tagged with the transaction handle.
class TimedKv : public obladi::TransactionalKv {
 public:
  TimedKv(obladi::TransactionalKv& inner, SpanLog* log);

  obladi::Timestamp Begin() override { return inner_.Begin(); }
  obladi::StatusOr<std::string> Read(obladi::Timestamp txn, const obladi::Key& key) override;
  obladi::Status Write(obladi::Timestamp txn, const obladi::Key& key, std::string value) override;
  obladi::Status Commit(obladi::Timestamp txn) override;
  void Abort(obladi::Timestamp txn) override;

 private:
  obladi::TransactionalKv& inner_;
  SpanLog* log_;
  uint32_t read_, write_, commit_, abort_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMED_STORES_H_
