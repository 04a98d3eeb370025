#include "perfbench/src/timed_stores.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

using obladi::Bytes;
using obladi::Status;
using obladi::StatusOr;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint32_t SpanLog::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::vector<std::string> SpanLog::names() const {
  std::lock_guard<std::mutex> lk(mu_);
  return names_;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "name,start_ns,end_ns,txn,items,bytes\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%llu,%llu,%llu,%u,%llu\n", names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.txn), s.items,
                 static_cast<unsigned long long>(s.bytes));
  }
  return std::fclose(f) == 0;
}

namespace {

void Emit(SpanLog* log, uint32_t name, uint64_t start_ns, size_t items, uint64_t bytes = 0,
          uint64_t txn = 0) {
  Span span;
  span.name = name;
  span.items = static_cast<uint32_t>(items);
  span.bytes = bytes;
  span.txn = txn;
  span.start_ns = start_ns;
  span.end_ns = NowNs();
  log->Add(span);
}

}  // namespace

// --- TimedBucketStore --------------------------------------------------------

TimedBucketStore::TimedBucketStore(std::shared_ptr<obladi::BucketStore> inner, SpanLog* log,
                                   const std::string& prefix)
    : inner_(std::move(inner)),
      log_(log),
      read_xor_(log->Intern(prefix + ".read_paths_xor")),
      read_slots_(log->Intern(prefix + ".read_slots")),
      write_(log->Intern(prefix + ".write_buckets")),
      truncate_(log->Intern(prefix + ".truncate")) {}

void TimedBucketStore::Record(uint32_t name, uint64_t start_ns, size_t items) {
  Emit(log_, name, start_ns, items);
}

StatusOr<Bytes> TimedBucketStore::ReadSlot(obladi::BucketIndex bucket, uint32_t version,
                                           obladi::SlotIndex slot) {
  uint64_t t0 = NowNs();
  auto out = inner_->ReadSlot(bucket, version, slot);
  Record(read_slots_, t0, 1);
  return out;
}

Status TimedBucketStore::WriteBucket(obladi::BucketIndex bucket, uint32_t version,
                                     std::vector<Bytes> slots) {
  uint64_t t0 = NowNs();
  Status st = inner_->WriteBucket(bucket, version, std::move(slots));
  Record(write_, t0, 1);
  return st;
}

std::vector<StatusOr<Bytes>> TimedBucketStore::ReadSlotsBatch(
    const std::vector<obladi::SlotRef>& refs) {
  uint64_t t0 = NowNs();
  auto out = inner_->ReadSlotsBatch(refs);
  Record(read_slots_, t0, refs.size());
  return out;
}

Status TimedBucketStore::WriteBucketsBatch(std::vector<obladi::BucketImage> images) {
  size_t n = images.size();
  uint64_t t0 = NowNs();
  Status st = inner_->WriteBucketsBatch(std::move(images));
  Record(write_, t0, n);
  return st;
}

Status TimedBucketStore::TruncateBucket(obladi::BucketIndex bucket, uint32_t keep_from_version) {
  uint64_t t0 = NowNs();
  Status st = inner_->TruncateBucket(bucket, keep_from_version);
  Record(truncate_, t0, 1);
  return st;
}

Status TimedBucketStore::TruncateBucketsBatch(const std::vector<obladi::TruncateRef>& refs) {
  uint64_t t0 = NowNs();
  Status st = inner_->TruncateBucketsBatch(refs);
  Record(truncate_, t0, refs.size());
  return st;
}

std::vector<StatusOr<obladi::PathXorResult>> TimedBucketStore::ReadPathsXor(
    const std::vector<obladi::PathSlots>& paths, uint32_t header_bytes, uint32_t trailer_bytes) {
  uint64_t t0 = NowNs();
  auto out = inner_->ReadPathsXor(paths, header_bytes, trailer_bytes);
  Record(read_xor_, t0, paths.size());
  return out;
}

// Async forms: the span runs from submission to the completion callback.
// The decorator outlives every in-flight request (the proxy drains its
// retirement before the stores are released).
void TimedBucketStore::ReadSlotsBatchAsync(std::vector<obladi::SlotRef> refs,
                                           ReadSlotsDone done) {
  size_t n = refs.size();
  uint64_t t0 = NowNs();
  inner_->ReadSlotsBatchAsync(std::move(refs),
                              [this, n, t0, done = std::move(done)](
                                  std::vector<StatusOr<Bytes>> out) {
                                Record(read_slots_, t0, n);
                                done(std::move(out));
                              });
}

void TimedBucketStore::WriteBucketsBatchAsync(std::vector<obladi::BucketImage> images,
                                              WriteBucketsDone done) {
  size_t n = images.size();
  uint64_t t0 = NowNs();
  inner_->WriteBucketsBatchAsync(std::move(images),
                                 [this, n, t0, done = std::move(done)](Status st) {
                                   Record(write_, t0, n);
                                   done(std::move(st));
                                 });
}

void TimedBucketStore::ReadPathsXorAsync(std::vector<obladi::PathSlots> paths,
                                         uint32_t header_bytes, uint32_t trailer_bytes,
                                         ReadPathsXorDone done) {
  size_t n = paths.size();
  uint64_t t0 = NowNs();
  inner_->ReadPathsXorAsync(std::move(paths), header_bytes, trailer_bytes,
                            [this, n, t0, done = std::move(done)](
                                std::vector<StatusOr<obladi::PathXorResult>> out) {
                              Record(read_xor_, t0, n);
                              done(std::move(out));
                            });
}

// --- TimedLogStore -----------------------------------------------------------

TimedLogStore::TimedLogStore(std::shared_ptr<obladi::LogStore> inner, SpanLog* log,
                             const std::string& prefix)
    : inner_(std::move(inner)),
      log_(log),
      append_sync_(log->Intern(prefix + ".append_sync")),
      append_(log->Intern(prefix + ".append")),
      sync_(log->Intern(prefix + ".sync")),
      truncate_(log->Intern(prefix + ".truncate")),
      read_all_(log->Intern(prefix + ".read_all")) {}

StatusOr<uint64_t> TimedLogStore::Append(Bytes record) {
  size_t bytes = record.size();
  uint64_t t0 = NowNs();
  auto out = inner_->Append(std::move(record));
  Emit(log_, append_, t0, 1, bytes);
  return out;
}

Status TimedLogStore::Sync() {
  uint64_t t0 = NowNs();
  Status st = inner_->Sync();
  Emit(log_, sync_, t0, 1);
  return st;
}

StatusOr<uint64_t> TimedLogStore::AppendSync(Bytes record) {
  size_t bytes = record.size();
  uint64_t t0 = NowNs();
  auto out = inner_->AppendSync(std::move(record));
  Emit(log_, append_sync_, t0, 1, bytes);
  return out;
}

StatusOr<std::vector<Bytes>> TimedLogStore::ReadAll() {
  uint64_t t0 = NowNs();
  auto out = inner_->ReadAll();
  Emit(log_, read_all_, t0, 1);
  return out;
}

Status TimedLogStore::Truncate(uint64_t upto_lsn) {
  uint64_t t0 = NowNs();
  Status st = inner_->Truncate(upto_lsn);
  Emit(log_, truncate_, t0, 1);
  return st;
}

// --- TimedKv -----------------------------------------------------------------

TimedKv::TimedKv(obladi::TransactionalKv& inner, SpanLog* log)
    : inner_(inner),
      log_(log),
      read_(log->Intern("kv.read")),
      write_(log->Intern("kv.write")),
      commit_(log->Intern("kv.commit")),
      abort_(log->Intern("kv.abort")) {}

StatusOr<std::string> TimedKv::Read(obladi::Timestamp txn, const obladi::Key& key) {
  uint64_t t0 = NowNs();
  auto out = inner_.Read(txn, key);
  Emit(log_, read_, t0, 1, 0, txn);
  return out;
}

Status TimedKv::Write(obladi::Timestamp txn, const obladi::Key& key, std::string value) {
  uint64_t t0 = NowNs();
  Status st = inner_.Write(txn, key, std::move(value));
  Emit(log_, write_, t0, 1, 0, txn);
  return st;
}

Status TimedKv::Commit(obladi::Timestamp txn) {
  uint64_t t0 = NowNs();
  Status st = inner_.Commit(txn);
  Emit(log_, commit_, t0, 1, 0, txn);
  return st;
}

void TimedKv::Abort(obladi::Timestamp txn) {
  uint64_t t0 = NowNs();
  inner_.Abort(txn);
  Emit(log_, abort_, t0, 1, 0, txn);
}

}  // namespace perfbench
