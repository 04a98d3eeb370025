#include "src/net/remote_store.h"

#include <utility>

namespace obladi {

namespace {

// Converts an RPC-level failure or a server-reported error to Status.
Status OverallStatus(const StatusOr<NetResponse>& resp) {
  if (!resp.ok()) {
    return resp.status();
  }
  return resp->ToStatus();
}

// Unpack a kReadSlots response into per-slot results, charging stats for the
// payload bytes. Shared by the blocking and async read paths.
std::vector<StatusOr<Bytes>> UnpackReads(StatusOr<NetResponse> resp, size_t expected,
                                         NetworkStats& stats) {
  Status st = OverallStatus(resp);
  std::vector<StatusOr<Bytes>> out;
  out.reserve(expected);
  if (!st.ok() || resp->reads.size() != expected) {
    if (st.ok()) {
      st = Status::Internal("server returned wrong read count");
    }
    for (size_t i = 0; i < expected; ++i) {
      out.push_back(st);
    }
    return out;
  }
  stats.reads.fetch_add(expected, std::memory_order_relaxed);
  for (ReadResult& read : resp->reads) {
    if (read.code == StatusCode::kOk) {
      stats.bytes_read.fetch_add(read.payload.size(), std::memory_order_relaxed);
      out.push_back(std::move(read.payload));
    } else {
      out.push_back(Status(read.code, std::move(read.message)));
    }
  }
  return out;
}

// Per-path slot counts: all the request shape the reply validation needs
// (cheaper to retain across the round trip than a copy of every slot ref).
std::vector<uint32_t> PathSlotCounts(const std::vector<PathSlots>& paths) {
  std::vector<uint32_t> counts;
  counts.reserve(paths.size());
  for (const PathSlots& path : paths) {
    counts.push_back(static_cast<uint32_t>(path.slots.size()));
  }
  return counts;
}

// Unpack a kReadPathsXor response into per-path results, validating that the
// server's reply matches the request's shape: the path count must agree and
// every successful path must carry exactly nslots * (header + trailer) header
// bytes. Shared by the blocking and async XOR read paths.
std::vector<StatusOr<PathXorResult>> UnpackXorReads(StatusOr<NetResponse> resp,
                                                    const std::vector<uint32_t>& slot_counts,
                                                    uint32_t header_bytes,
                                                    uint32_t trailer_bytes,
                                                    NetworkStats& stats) {
  Status st = OverallStatus(resp);
  std::vector<StatusOr<PathXorResult>> out;
  out.reserve(slot_counts.size());
  if (!st.ok() || resp->xor_reads.size() != slot_counts.size()) {
    if (st.ok()) {
      st = Status::IntegrityViolation("server returned wrong xor path count");
    }
    for (size_t i = 0; i < slot_counts.size(); ++i) {
      out.push_back(st);
    }
    return out;
  }
  size_t edge = static_cast<size_t>(header_bytes) + trailer_bytes;
  for (size_t i = 0; i < slot_counts.size(); ++i) {
    XorReadResult& read = resp->xor_reads[i];
    if (read.code != StatusCode::kOk) {
      out.push_back(Status(read.code, std::move(read.message)));
      continue;
    }
    if (read.headers.size() != slot_counts[i] * edge) {
      out.push_back(Status::IntegrityViolation("xor reply headers have wrong size"));
      continue;
    }
    stats.reads.fetch_add(slot_counts[i], std::memory_order_relaxed);
    stats.bytes_read.fetch_add(read.headers.size() + read.body_xor.size(),
                               std::memory_order_relaxed);
    out.push_back(PathXorResult{std::move(read.headers), std::move(read.body_xor)});
  }
  return out;
}

}  // namespace

// --- RemoteBucketStore ------------------------------------------------------

StatusOr<std::unique_ptr<RemoteBucketStore>> RemoteBucketStore::Connect(
    RemoteStoreOptions options) {
  auto client = AsyncNetClient::Connect(options.ToAsyncOptions());
  if (!client.ok()) {
    return client.status();
  }
  NetRequest req;
  req.type = MsgType::kNumBuckets;
  auto resp = (*client)->Call(std::move(req));
  Status st = OverallStatus(resp);
  if (!st.ok()) {
    return st;
  }
  return std::make_unique<RemoteBucketStore>(*client, static_cast<size_t>(resp->u64));
}

StatusOr<Bytes> RemoteBucketStore::ReadSlot(BucketIndex bucket, uint32_t version,
                                            SlotIndex slot) {
  auto results = ReadSlotsBatch({SlotRef{bucket, version, slot}});
  return std::move(results[0]);
}

std::vector<StatusOr<Bytes>> RemoteBucketStore::ReadSlotsBatch(
    const std::vector<SlotRef>& refs) {
  NetRequest req;
  req.type = MsgType::kReadSlots;
  req.reads = refs;
  return UnpackReads(client_->Call(std::move(req)), refs.size(), client_->stats());
}

void RemoteBucketStore::ReadSlotsBatchAsync(std::vector<SlotRef> refs, ReadSlotsDone done) {
  size_t n = refs.size();
  NetRequest req;
  req.type = MsgType::kReadSlots;
  req.reads = std::move(refs);
  client_->Submit(std::move(req),
                  [this, n, done = std::move(done)](StatusOr<NetResponse> resp) {
                    done(UnpackReads(std::move(resp), n, client_->stats()));
                  });
}

std::vector<StatusOr<PathXorResult>> RemoteBucketStore::ReadPathsXor(
    const std::vector<PathSlots>& paths, uint32_t header_bytes, uint32_t trailer_bytes) {
  std::vector<uint32_t> counts = PathSlotCounts(paths);
  NetRequest req;
  req.type = MsgType::kReadPathsXor;
  req.path_reads = paths;
  req.xor_header_bytes = header_bytes;
  req.xor_trailer_bytes = trailer_bytes;
  return UnpackXorReads(client_->Call(std::move(req)), counts, header_bytes, trailer_bytes,
                        client_->stats());
}

void RemoteBucketStore::ReadPathsXorAsync(std::vector<PathSlots> paths, uint32_t header_bytes,
                                          uint32_t trailer_bytes, ReadPathsXorDone done) {
  auto counts = std::make_shared<std::vector<uint32_t>>(PathSlotCounts(paths));
  NetRequest req;
  req.type = MsgType::kReadPathsXor;
  req.path_reads = std::move(paths);
  req.xor_header_bytes = header_bytes;
  req.xor_trailer_bytes = trailer_bytes;
  client_->Submit(std::move(req), [this, counts, header_bytes, trailer_bytes,
                                   done = std::move(done)](StatusOr<NetResponse> resp) {
    done(UnpackXorReads(std::move(resp), *counts, header_bytes, trailer_bytes,
                        client_->stats()));
  });
}

Status RemoteBucketStore::WriteBucket(BucketIndex bucket, uint32_t version,
                                      std::vector<Bytes> slots) {
  std::vector<BucketImage> images(1);
  images[0].bucket = bucket;
  images[0].version = version;
  images[0].slots = std::move(slots);
  return WriteBucketsBatch(std::move(images));
}

Status RemoteBucketStore::WriteBucketsBatch(std::vector<BucketImage> images) {
  size_t n = images.size();
  size_t bytes = 0;
  for (const BucketImage& image : images) {
    for (const Bytes& slot : image.slots) {
      bytes += slot.size();
    }
  }
  NetRequest req;
  req.type = MsgType::kWriteBuckets;
  req.writes = std::move(images);
  auto resp = client_->Call(std::move(req));
  Status st = OverallStatus(resp);
  if (st.ok()) {
    NetworkStats& stats = client_->stats();
    stats.writes.fetch_add(n, std::memory_order_relaxed);
    stats.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  }
  return st;
}

void RemoteBucketStore::WriteBucketsBatchAsync(std::vector<BucketImage> images,
                                               WriteBucketsDone done) {
  size_t n = images.size();
  size_t bytes = 0;
  for (const BucketImage& image : images) {
    for (const Bytes& slot : image.slots) {
      bytes += slot.size();
    }
  }
  NetRequest req;
  req.type = MsgType::kWriteBuckets;
  req.writes = std::move(images);
  client_->Submit(std::move(req),
                  [this, n, bytes, done = std::move(done)](StatusOr<NetResponse> resp) {
                    Status st = OverallStatus(resp);
                    if (st.ok()) {
                      NetworkStats& stats = client_->stats();
                      stats.writes.fetch_add(n, std::memory_order_relaxed);
                      stats.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
                    }
                    done(st);
                  });
}

Status RemoteBucketStore::TruncateBucket(BucketIndex bucket, uint32_t keep_from_version) {
  NetRequest req;
  req.type = MsgType::kTruncateBucket;
  req.bucket = bucket;
  req.keep_from_version = keep_from_version;
  return OverallStatus(client_->Call(std::move(req)));
}

Status RemoteBucketStore::TruncateBucketsBatch(const std::vector<TruncateRef>& refs) {
  if (refs.empty()) {
    return Status::Ok();
  }
  NetRequest req;
  req.type = MsgType::kTruncateBucketsBatch;
  req.truncates = refs;
  return OverallStatus(client_->Call(std::move(req)));
}

// --- RemoteLogStore ---------------------------------------------------------

StatusOr<std::unique_ptr<RemoteLogStore>> RemoteLogStore::Connect(
    RemoteStoreOptions options) {
  auto client = AsyncNetClient::Connect(options.ToAsyncOptions());
  if (!client.ok()) {
    return client.status();
  }
  return std::make_unique<RemoteLogStore>(*client);
}

StatusOr<uint64_t> RemoteLogStore::Append(Bytes record) {
  size_t bytes = record.size();
  NetRequest req;
  req.type = MsgType::kLogAppend;
  req.record = std::move(record);
  auto resp = client_->Call(std::move(req));
  Status st = OverallStatus(resp);
  if (!st.ok()) {
    return st;
  }
  NetworkStats& stats = client_->stats();
  stats.writes.fetch_add(1, std::memory_order_relaxed);
  stats.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  return resp->u64;
}

Status RemoteLogStore::Sync() {
  NetRequest req;
  req.type = MsgType::kLogSync;
  return OverallStatus(client_->Call(std::move(req)));
}

StatusOr<uint64_t> RemoteLogStore::AppendSync(Bytes record) {
  size_t bytes = record.size();
  NetRequest req;
  req.type = MsgType::kLogAppendSync;
  req.record = std::move(record);
  auto resp = client_->Call(std::move(req));
  Status st = OverallStatus(resp);
  if (!st.ok()) {
    return st;
  }
  NetworkStats& stats = client_->stats();
  stats.writes.fetch_add(1, std::memory_order_relaxed);
  stats.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  return resp->u64;
}

StatusOr<std::vector<Bytes>> RemoteLogStore::ReadAll() {
  NetRequest req;
  req.type = MsgType::kLogReadAll;
  auto resp = client_->Call(std::move(req));
  Status st = OverallStatus(resp);
  if (!st.ok()) {
    return st;
  }
  NetworkStats& stats = client_->stats();
  stats.reads.fetch_add(resp->records.size(), std::memory_order_relaxed);
  for (const Bytes& record : resp->records) {
    stats.bytes_read.fetch_add(record.size(), std::memory_order_relaxed);
  }
  return std::move(resp->records);
}

Status RemoteLogStore::Truncate(uint64_t upto_lsn) {
  NetRequest req;
  req.type = MsgType::kLogTruncate;
  req.lsn = upto_lsn;
  return OverallStatus(client_->Call(std::move(req)));
}

uint64_t RemoteLogStore::NextLsn() const {
  NetRequest req;
  req.type = MsgType::kLogNextLsn;
  auto resp = client_->Call(std::move(req));
  if (!resp.ok() || !resp->ToStatus().ok()) {
    return 0;
  }
  return resp->u64;
}

}  // namespace obladi
