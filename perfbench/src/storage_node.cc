#include "perfbench/src/storage_node.h"

#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "perfbench/src/metrics.h"
#include "src/common/histogram.h"
#include "src/common/serde.h"
#include "src/net/storage_server.h"
#include "src/net/wire.h"
#include "src/storage/memory_store.h"

namespace perfbench {

using obladi::BinaryReader;
using obladi::BinaryWriter;
using obladi::Bytes;
using obladi::MsgType;
using obladi::Status;
using obladi::StatusOr;

namespace {

enum Op : uint8_t { kUp = 1, kDown = 2, kMarkStart = 3, kMarkEnd = 4, kFinish = 5 };

// Server request types folded into each reported kind.
const std::vector<std::pair<std::string, std::vector<MsgType>>>& ServiceKinds() {
  static const std::vector<std::pair<std::string, std::vector<MsgType>>> kKinds = {
      {"read_paths_xor", {MsgType::kReadPathsXor}},
      {"read_slots", {MsgType::kReadSlots}},
      {"write_buckets", {MsgType::kWriteBuckets}},
      {"truncate", {MsgType::kTruncateBucketsBatch, MsgType::kTruncateBucket}},
  };
  return kKinds;
}

bool WriteAll(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (w <= 0) {
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, uint8_t* data, size_t n) {
  while (n > 0) {
    ssize_t r = ::read(fd, data, n);
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r <= 0) {
      return false;
    }
    data += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

bool WriteFrame(int fd, const Bytes& payload) {
  uint32_t n = static_cast<uint32_t>(payload.size());
  uint8_t len[4] = {static_cast<uint8_t>(n), static_cast<uint8_t>(n >> 8),
                    static_cast<uint8_t>(n >> 16), static_cast<uint8_t>(n >> 24)};
  return WriteAll(fd, len, 4) && WriteAll(fd, payload.data(), payload.size());
}

bool ReadFrame(int fd, Bytes* payload) {
  uint8_t len[4];
  if (!ReadAll(fd, len, 4)) {
    return false;
  }
  uint32_t n = static_cast<uint32_t>(len[0]) | (static_cast<uint32_t>(len[1]) << 8) |
               (static_cast<uint32_t>(len[2]) << 16) | (static_cast<uint32_t>(len[3]) << 24);
  payload->resize(n);
  return ReadAll(fd, payload->data(), n);
}

void PutUsage(BinaryWriter& w) {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  uint64_t cpu_us = static_cast<uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000 +
                    static_cast<uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  w.PutU64(cpu_us);
  ::malloc_trim(0);  // RSS without free heap an earlier tier left in the arenas
  w.PutDouble(CurrentRssMb());
}

// --- the storage process -----------------------------------------------------

struct Tier {
  std::vector<std::unique_ptr<obladi::StorageServer>> servers;
};

obladi::Histogram& OpHistogram(obladi::StorageServer& server, MsgType type) {
  return server.metrics()->GetHistogram("server_op_service_time_us",
                                        {{"op", obladi::MsgTypeName(type)}});
}

Status StartTier(BinaryReader& r, SpanLog* spans, Tier* tier, BinaryWriter& w) {
  TierGeometry g;
  g.shards = r.GetU32();
  g.replicas = r.GetU32();
  g.buckets_per_shard = r.GetU64();
  g.slots_per_bucket = r.GetU64();
  g.traced = r.GetBool();
  if (!r.ok() || g.shards == 0 || g.replicas == 0) {
    return Status::InvalidArgument("malformed tier geometry");
  }
  std::vector<std::shared_ptr<obladi::LogStore>> wal(g.replicas);
  for (auto& log : wal) {
    log = std::make_shared<obladi::MemoryLogStore>();
    if (g.traced) {
      log = std::make_shared<TimedLogStore>(log, spans, "backend");
    }
  }
  obladi::StorageServerOptions options;
  options.admin_listener = g.traced;  // per-op service-time histograms
  w.PutU32(g.shards * g.replicas);
  for (uint32_t s = 0; s < g.shards; ++s) {
    for (uint32_t rep = 0; rep < g.replicas; ++rep) {
      std::shared_ptr<obladi::BucketStore> buckets =
          std::make_shared<obladi::MemoryBucketStore>(g.buckets_per_shard, g.slots_per_bucket);
      if (g.traced) {
        buckets = std::make_shared<TimedBucketStore>(buckets, spans, "backend");
      }
      auto server = std::make_unique<obladi::StorageServer>(
          buckets, s == 0 ? wal[rep] : nullptr, options);
      OBLADI_RETURN_IF_ERROR(server->Start());
      w.PutU32(server->port());
      tier->servers.push_back(std::move(server));
    }
  }
  return Status::Ok();
}

void PutServiceTimes(Tier* tier, BinaryWriter& w) {
  size_t traced = 0;
  for (auto& server : tier->servers) {
    traced += server->metrics() != nullptr ? 1 : 0;
  }
  if (traced == 0) {
    w.PutU32(0);
    return;
  }
  w.PutU32(static_cast<uint32_t>(ServiceKinds().size()));
  for (const auto& [kind, types] : ServiceKinds()) {
    obladi::Histogram merged;
    for (auto& server : tier->servers) {
      for (MsgType type : types) {
        merged.Merge(OpHistogram(*server, type));
      }
    }
    w.PutString(kind);
    w.PutDouble(static_cast<double>(merged.Percentile(0.50)));
    w.PutDouble(static_cast<double>(merged.Percentile(0.95)));
  }
}

[[noreturn]] void ChildMain(int cmd_fd, int reply_fd) {
  // Never outlive the benchmark process, whatever way it ends.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  SpanLog spans;
  std::unique_ptr<Tier> tier;
  uint64_t window_start_ns = 0;
  for (;;) {
    Bytes request;
    if (!ReadFrame(cmd_fd, &request) || request.empty()) {
      tier.reset();
      ::_exit(0);
    }
    BinaryReader r(request);
    uint8_t op = r.GetU8();
    BinaryWriter w;
    w.PutU8(0);  // ok; rewritten below on failure
    Status st = Status::Ok();
    switch (op) {
      case kUp:
        tier = std::make_unique<Tier>();
        st = StartTier(r, &spans, tier.get(), w);
        break;
      case kDown:
        tier.reset();
        break;
      case kMarkStart:
      case kMarkEnd: {
        uint64_t at_ns = r.GetU64();
        if (op == kMarkStart) {
          window_start_ns = at_ns;
          for (size_t i = 0; tier && i < tier->servers.size(); ++i) {
            if (tier->servers[i]->metrics() == nullptr) {
              continue;
            }
            for (const auto& kind : ServiceKinds()) {
              for (MsgType type : kind.second) {
                OpHistogram(*tier->servers[i], type).Reset();
              }
            }
          }
        }
        PutUsage(w);
        if (tier) {
          PutServiceTimes(tier.get(), w);
        } else {
          w.PutU32(0);
        }
        uint64_t busy_ns = 0;
        if (op == kMarkEnd) {
          for (const Span& s : spans.Snapshot()) {
            if (s.end_ns >= window_start_ns && s.end_ns <= at_ns) {
              busy_ns += s.end_ns - s.start_ns;
            }
          }
        }
        w.PutU64(busy_ns);
        break;
      }
      case kFinish: {
        tier.reset();
        std::vector<std::string> names = spans.names();
        std::vector<Span> all = spans.Snapshot();
        w.PutU64(all.size());
        for (const Span& s : all) {
          w.PutString(names[s.name]);
          w.PutU64(s.start_ns);
          w.PutU64(s.end_ns);
          w.PutU32(s.items);
          w.PutU64(s.bytes);
        }
        WriteFrame(reply_fd, w.Take());
        ::_exit(0);
      }
      default:
        st = Status::InvalidArgument("unknown storage-node command");
    }
    Bytes reply = w.Take();
    if (!st.ok()) {
      BinaryWriter err;
      err.PutU8(1);
      err.PutString(st.ToString());
      reply = err.Take();
    }
    if (!WriteFrame(reply_fd, reply)) {
      tier.reset();
      ::_exit(1);
    }
  }
}

StatusOr<TierReport> ParseReport(const Bytes& reply) {
  BinaryReader r(reply);
  TierReport report;
  report.cpu_us = r.GetU64();
  report.rss_mb = r.GetDouble();
  uint32_t kinds = r.GetU32();
  for (uint32_t i = 0; i < kinds && r.ok(); ++i) {
    std::string kind = r.GetString();
    ServiceTimes t;
    t.p50_us = r.GetDouble();
    t.p95_us = r.GetDouble();
    report.service[kind] = t;
  }
  report.backend_busy_ms = static_cast<double>(r.GetU64()) / 1e6;
  if (!r.ok()) {
    return Status::Internal("malformed storage-node report");
  }
  return report;
}

}  // namespace

// --- the benchmark side ------------------------------------------------------

std::unique_ptr<StorageNode> StorageNode::Fork() {
  int cmd[2];
  int reply[2];
  if (::pipe(cmd) != 0) {
    return nullptr;
  }
  if (::pipe(reply) != 0) {
    ::close(cmd[0]);
    ::close(cmd[1]);
    return nullptr;
  }
  std::fflush(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {cmd[0], cmd[1], reply[0], reply[1]}) {
      ::close(fd);
    }
    return nullptr;
  }
  if (pid == 0) {
    ::close(cmd[1]);
    ::close(reply[0]);
    ChildMain(cmd[0], reply[1]);
  }
  ::close(cmd[0]);
  ::close(reply[1]);
  return std::unique_ptr<StorageNode>(new StorageNode(pid, cmd[1], reply[0]));
}

StorageNode::~StorageNode() { Reap(); }

void StorageNode::Reap() {
  if (pid_ <= 0) {
    return;
  }
  ::close(cmd_fd_);  // EOF: the child tears its tier down and exits
  ::close(reply_fd_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

StatusOr<Bytes> StorageNode::Call(const Bytes& request) {
  if (pid_ <= 0) {
    return Status::FailedPrecondition("storage node already finished");
  }
  Bytes reply;
  if (!WriteFrame(cmd_fd_, request) || !ReadFrame(reply_fd_, &reply) || reply.empty()) {
    return Status::Unavailable("storage node process is gone");
  }
  if (reply[0] != 0) {
    BinaryReader r(reply.data() + 1, reply.size() - 1);
    return Status::Internal("storage node: " + r.GetString());
  }
  return Bytes(reply.begin() + 1, reply.end());
}

StatusOr<std::vector<uint16_t>> StorageNode::Up(const TierGeometry& g) {
  BinaryWriter w;
  w.PutU8(kUp);
  w.PutU32(g.shards);
  w.PutU32(g.replicas);
  w.PutU64(g.buckets_per_shard);
  w.PutU64(g.slots_per_bucket);
  w.PutBool(g.traced);
  auto reply = Call(w.Take());
  if (!reply.ok()) {
    return reply.status();
  }
  BinaryReader r(*reply);
  uint32_t n = r.GetU32();
  std::vector<uint16_t> ports;
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    ports.push_back(static_cast<uint16_t>(r.GetU32()));
  }
  if (!r.ok() || ports.size() != static_cast<size_t>(g.shards) * g.replicas) {
    return Status::Internal("malformed storage-node port list");
  }
  return ports;
}

Status StorageNode::Down() {
  BinaryWriter w;
  w.PutU8(kDown);
  return Call(w.Take()).status();
}

StatusOr<TierReport> StorageNode::MarkWindowStart(uint64_t window_start_ns) {
  BinaryWriter w;
  w.PutU8(kMarkStart);
  w.PutU64(window_start_ns);
  auto reply = Call(w.Take());
  if (!reply.ok()) {
    return reply.status();
  }
  return ParseReport(*reply);
}

StatusOr<TierReport> StorageNode::MarkWindowEnd(uint64_t window_end_ns) {
  BinaryWriter w;
  w.PutU8(kMarkEnd);
  w.PutU64(window_end_ns);
  auto reply = Call(w.Take());
  if (!reply.ok()) {
    return reply.status();
  }
  return ParseReport(*reply);
}

StatusOr<std::vector<std::pair<std::string, Span>>> StorageNode::Finish() {
  BinaryWriter w;
  w.PutU8(kFinish);
  auto reply = Call(w.Take());
  Reap();
  if (!reply.ok()) {
    return reply.status();
  }
  BinaryReader r(*reply);
  uint64_t n = r.GetU64();
  std::vector<std::pair<std::string, Span>> out;
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string name = r.GetString();
    Span s;
    s.start_ns = r.GetU64();
    s.end_ns = r.GetU64();
    s.items = r.GetU32();
    s.bytes = r.GetU64();
    out.emplace_back(std::move(name), s);
  }
  if (!r.ok()) {
    return Status::Internal("malformed storage-node span dump");
  }
  return out;
}

}  // namespace perfbench
