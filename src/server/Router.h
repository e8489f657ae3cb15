//===- server/Router.h - Consistent-hash router over lcm_serve shards ----===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet tier (docs/FLEET.md): a Router fronts N lcm_serve shards over
/// the framed protocol, speaking the same wire format to clients that a
/// single shard does — clients cannot tell a router from a shard.
///
/// Routing is by consistent hash: each shard owns VirtualNodes points on a
/// 64-bit ring, and a request is forwarded to the shard owning the first
/// point at or after the digest of its content-defining fields (IR text,
/// pipeline, check/report flags — the same fields the shards key their
/// result caches on).  Repeat programs therefore land on the same shard
/// and hit its warm memory cache; since shards can also share a disk-cache
/// directory, a restarted or failed-over shard still answers warm from
/// spill.
///
/// Failure handling: a forward that cannot connect or dies mid-exchange is
/// retried with exponential backoff, failing over to the next distinct
/// shard on the ring.  Shards that refuse connections are marked unhealthy
/// and skipped while alternatives exist; a background health thread
/// re-probes them and returns them to rotation.  A request is answered
/// `unavailable` only after every shard has been tried — under one-at-a-
/// time chaos (kill/restart), zero requests are dropped.
///
/// The Router reuses the Server transport (ServerOptions::Handler): its
/// listeners, framing, bounded-queue admission control, and SIGTERM drain
/// semantics are exactly the shard daemon's.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_SERVER_ROUTER_H
#define LCM_SERVER_ROUTER_H

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/ByteLru.h"
#include "cache/ContentHash.h"
#include "server/Client.h"
#include "server/Server.h"

namespace lcm {
namespace server {

/// One backend shard address: loopback TCP when TcpPort >= 0, otherwise a
/// Unix-domain socket path.
struct ShardEndpoint {
  int TcpPort = -1;
  std::string UnixPath;

  /// Ring identity and metrics label: "tcp:<port>" or "unix:<path>".
  std::string name() const {
    return TcpPort >= 0 ? "tcp:" + std::to_string(TcpPort)
                        : "unix:" + UnixPath;
  }
};

/// A consistent-hash ring with virtual nodes.  Members are added once at
/// construction time; lookups return the *failover order* — every distinct
/// member, starting with the owner of the first virtual node at or after
/// the query point and continuing around the ring — so a caller can walk
/// alternatives without re-hashing.
class HashRing {
public:
  /// Adds a member (identified by its add() index) with \p VirtualNodes
  /// points derived from \p Name.
  void add(const std::string &Name, unsigned VirtualNodes);

  size_t members() const { return NumMembers; }

  /// Distinct member indices in ring order from \p Point.  Deterministic
  /// for a fixed membership; empty iff no members.
  std::vector<size_t> walk(uint64_t Point) const;

private:
  std::vector<std::pair<uint64_t, size_t>> Nodes; ///< (point, member).
  size_t NumMembers = 0;
};

struct RouterOptions {
  /// Client-facing listeners, same semantics as ServerOptions.
  int TcpPort = -1;
  std::string UnixPath;
  unsigned Workers = 4;
  size_t QueueCapacity = 256;
  size_t MaxFrameBytes = DefaultMaxFrameBytes;

  /// Backend shards.  At least one is required.
  std::vector<ShardEndpoint> Shards;

  /// Virtual nodes per shard on the hash ring.
  unsigned VirtualNodes = 64;
  /// Total forward attempts per request across all shards before
  /// answering `unavailable`.
  unsigned MaxAttempts = 6;
  /// Backoff before the Nth retry is RetryBackoffMs << (N-1), capped at
  /// MaxBackoffMs.
  int RetryBackoffMs = 10;
  int MaxBackoffMs = 200;
  /// SO_RCVTIMEO on shard connections: a hung shard becomes a retryable
  /// error instead of a wedged worker.
  int ShardRecvTimeoutMs = 30'000;
  /// Health thread probe period for unhealthy shards.
  int HealthIntervalMs = 200;
  /// Router-side response cache budget in bytes; 0 disables it.  Repeat
  /// requests (same semantics-bearing fields; id and deadline excluded)
  /// are answered from the router without touching a shard.  Only `ok`
  /// responses are cached — errors, overload, and `base_miss` always
  /// re-forward, so a recovered shard is observed immediately.
  size_t CacheBytes = 0;
};

/// The router's bounded response cache: an LRU over full response
/// documents (cache/ByteLru.h), keyed by the digest of the request's
/// semantics-bearing fields and charged `dump(0).size() + 64` bytes.
/// Router::forward stores responses with their `id` nulled and re-stamps
/// the requester's id on a hit, so a cached answer is byte-compatible with
/// a fresh forward.  Hits and misses bump `router.cache.*`.
class ResponseCache : public cache::ByteLru<json::Value> {
public:
  explicit ResponseCache(size_t MaxBytes)
      : ByteLru(MaxBytes, {"router.cache.hits", "router.cache.misses"}) {}

  /// Digest of every request field except `id` and `deadline_ms`, member
  /// order ignored.  False when the payload is not a JSON object (such
  /// requests bypass the cache and fail on the shard).
  static bool requestKey(const std::string &Payload, cache::Digest &Key);
};

class Router {
public:
  explicit Router(RouterOptions Opts);
  ~Router();

  Router(const Router &) = delete;
  Router &operator=(const Router &) = delete;

  /// Binds listeners, starts the worker pool and the health thread.
  bool start(std::string &Error);

  /// Graceful drain with the Server's semantics: every admitted request is
  /// still forwarded and answered.  Idempotent.
  void shutdown();

  int tcpPort() const { return Srv ? Srv->tcpPort() : -1; }
  size_t queueDepth() const { return Srv ? Srv->queueDepth() : 0; }

  struct Counters {
    uint64_t Forwarded = 0;   ///< Requests entering forward().
    uint64_t Retries = 0;     ///< Failed attempts that were retried.
    uint64_t Failovers = 0;   ///< Requests answered by a non-first shard.
    uint64_t Unavailable = 0; ///< Requests no shard could answer.
    /// Requests answered from the response cache, and cacheable requests
    /// that went to a shard: the cache's own counts, 0 when it is off.
    uint64_t CacheHits = 0;
    uint64_t CacheMisses = 0;
  };
  Counters counters() const;

  struct ShardStatus {
    std::string Name;
    bool Healthy = true;
    uint64_t Forwards = 0; ///< Successful exchanges with this shard.
    uint64_t Failures = 0; ///< Connect/IO failures charged to this shard.
  };
  std::vector<ShardStatus> shardStatus() const;

  /// The response cache, null when CacheBytes == 0.
  const ResponseCache *responseCache() const { return Cache.get(); }

  /// The routing digest: a 64-bit point derived from the request's
  /// content-defining fields (ir, pipeline, check/report), matching what
  /// shards fold into their cache keys.  Unparsable payloads hash
  /// verbatim.  \p IdOut, when non-null, receives the request id (for
  /// error responses).  Exposed so tests can predict ring placement.
  static uint64_t routingPoint(const std::string &Payload,
                               json::Value *IdOut = nullptr);

  /// Forwards one payload and returns the response document; the Server
  /// worker pool calls this as its handler.  Public so tests can exercise
  /// routing without sockets on the client side.
  json::Value forward(const std::string &Payload);

private:
  struct Shard {
    ShardEndpoint Ep;
    std::mutex Mu;
    std::vector<Client> Idle; ///< Warm connections, LIFO.
    std::atomic<bool> Healthy{true};
    std::atomic<uint64_t> Forwards{0};
    std::atomic<uint64_t> Failures{0};
  };

  bool exchangeWithShard(Shard &S, const std::string &Payload,
                         json::Value &Response, std::string &Error);
  bool connectShard(const ShardEndpoint &Ep, Client &C, std::string &Error);
  void healthLoop();
  size_t healthyCount() const;

  RouterOptions Opts;
  std::unique_ptr<Server> Srv;
  std::vector<std::unique_ptr<Shard>> Shards;
  HashRing Ring;
  std::unique_ptr<ResponseCache> Cache; ///< Null when CacheBytes == 0.

  std::atomic<bool> HealthRunning{false};
  std::thread HealthThread;
  std::mutex HealthMu;
  std::condition_variable HealthCv;

  std::atomic<uint64_t> NumForwarded{0};
  std::atomic<uint64_t> NumRetries{0};
  std::atomic<uint64_t> NumFailovers{0};
  std::atomic<uint64_t> NumUnavailable{0};
};

} // namespace server
} // namespace lcm

#endif // LCM_SERVER_ROUTER_H
