// The storage tier in its own process, so CPU time and RSS are measured per
// tier. Fork() must run before the benchmark starts any thread: the child is
// a plain single-threaded process that serves commands from the parent over
// a pipe and starts its StorageServers (and their threads) only on request.
//
// Node (s, r) holds replica r of shard s's buckets in a MemoryBucketStore;
// node (0, r) also serves WAL replica r from a MemoryLogStore. The WAL lives
// in storage-node memory: no disk is involved.
#ifndef PERFBENCH_SRC_STORAGE_NODE_H_
#define PERFBENCH_SRC_STORAGE_NODE_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/timed_stores.h"
#include "src/common/status.h"

namespace perfbench {

struct TierGeometry {
  uint32_t shards = 1;
  uint32_t replicas = 1;
  uint64_t buckets_per_shard = 0;
  uint64_t slots_per_bucket = 0;
  // Traced tier: backends sit behind TimedBucketStore/TimedLogStore
  // ("backend.*" spans) and every server records per-op service times.
  bool traced = false;
};

struct ServiceTimes {
  double p50_us = 0;
  double p95_us = 0;
};

struct TierReport {
  uint64_t cpu_us = 0;     // storage process CPU time, user + system
  double rss_mb = 0;       // storage process RSS at the mark, free heap trimmed
  // Traced tiers only, since the last MarkWindowStart: per request kind
  // (read_paths_xor, read_slots, write_buckets, truncate), merged over
  // every server.
  std::map<std::string, ServiceTimes> service;
  // Traced tiers only: backend span totals inside the window.
  double backend_busy_ms = 0;
};

class StorageNode {
 public:
  // Forks the storage process. nullptr on failure.
  static std::unique_ptr<StorageNode> Fork();
  // Ends the storage process (if Finish was not called) and reaps it.
  ~StorageNode();
  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  // Starts a fresh tier (new, empty stores) and returns the node ports,
  // index s * replicas + r. Any previous tier must be torn down first.
  obladi::StatusOr<std::vector<uint16_t>> Up(const TierGeometry& geometry);
  obladi::Status Down();
  // Measurement window marks. The start mark resets the servers' per-op
  // service-time histograms so the end mark reports only the window.
  obladi::StatusOr<TierReport> MarkWindowStart(uint64_t window_start_ns);
  obladi::StatusOr<TierReport> MarkWindowEnd(uint64_t window_end_ns);
  // Stops the storage process; returns its backend spans (traced tiers).
  obladi::StatusOr<std::vector<std::pair<std::string, Span>>> Finish();

 private:
  StorageNode(pid_t pid, int cmd_fd, int reply_fd)
      : pid_(pid), cmd_fd_(cmd_fd), reply_fd_(reply_fd) {}
  obladi::StatusOr<obladi::Bytes> Call(const obladi::Bytes& request);
  void Reap();

  pid_t pid_;
  int cmd_fd_;
  int reply_fd_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STORAGE_NODE_H_
