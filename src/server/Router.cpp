//===- server/Router.cpp ---------------------------------------------------===//

#include "server/Router.h"

#include <algorithm>
#include <chrono>

#include "cache/ContentHash.h"
#include "support/Stats.h"
#include "support/Trace.h"

using namespace lcm;
using namespace lcm::server;
using json::Value;

//===----------------------------------------------------------------------===//
// HashRing
//===----------------------------------------------------------------------===//

void HashRing::add(const std::string &Name, unsigned VirtualNodes) {
  const size_t Member = NumMembers++;
  for (unsigned V = 0; V != std::max(1u, VirtualNodes); ++V) {
    cache::Hasher H;
    H.update(Name);
    H.updateU64(V);
    Nodes.emplace_back(H.digest().Lo, Member);
  }
  std::sort(Nodes.begin(), Nodes.end());
}

std::vector<size_t> HashRing::walk(uint64_t Point) const {
  std::vector<size_t> Order;
  if (Nodes.empty())
    return Order;
  Order.reserve(NumMembers);
  std::vector<bool> Seen(NumMembers, false);
  // First virtual node at or after Point, wrapping.
  size_t Begin = std::lower_bound(Nodes.begin(), Nodes.end(),
                                  std::make_pair(Point, size_t(0))) -
                 Nodes.begin();
  for (size_t I = 0; I != Nodes.size() && Order.size() != NumMembers; ++I) {
    const size_t Member = Nodes[(Begin + I) % Nodes.size()].second;
    if (!Seen[Member]) {
      Seen[Member] = true;
      Order.push_back(Member);
    }
  }
  return Order;
}

//===----------------------------------------------------------------------===//
// Routing digest
//===----------------------------------------------------------------------===//

uint64_t Router::routingPoint(const std::string &Payload, Value *IdOut) {
  json::ParseResult Doc = json::parse(Payload);
  if (!Doc || !Doc.V.isObject()) {
    // Unroutable content still needs *deterministic* placement so retries
    // of the same bytes follow the same failover order.
    return cache::hashBytes(Payload).Lo;
  }
  if (IdOut) {
    if (const Value *Id = Doc.V.find("id"))
      *IdOut = *Id;
  }
  cache::Hasher H;
  auto Absorb = [&](const char *Field, std::string_view Default) {
    const Value *V = Doc.V.find(Field);
    std::string_view S =
        V && V->isString() ? std::string_view(V->asString()) : Default;
    H.updateU64(S.size());
    H.update(S);
  };
  // The fields that determine a shard's cache key (cache/ContentHash.h):
  // program text and pipeline, plus the flags folded into the pipeline
  // fingerprint.  Everything else (id, deadline, validate) deliberately
  // does not move a request between shards.
  Absorb("ir", "");
  Absorb("pipeline", "lcse,lcm");
  auto AbsorbFlag = [&](const char *Field) {
    const Value *V = Doc.V.find(Field);
    H.updateU64(V && V->isBool() && V->asBool() ? 1 : 0);
  };
  AbsorbFlag("check");
  AbsorbFlag("report");
  return H.digest().Lo;
}

//===----------------------------------------------------------------------===//
// ResponseCache
//===----------------------------------------------------------------------===//

bool ResponseCache::requestKey(const std::string &Payload,
                               cache::Digest &Key) {
  json::ParseResult Doc = json::parse(Payload);
  if (!Doc || !Doc.V.isObject())
    return false;
  // Every field except the echo-only id and the deadline participates:
  // validate, profile, patch ops — anything that can change the response
  // body must change the key.  Member names are sorted so two clients
  // serializing the same request in different order share an entry.
  std::vector<std::pair<std::string, std::string>> Fields;
  Fields.reserve(Doc.V.members().size());
  for (const auto &[Name, V] : Doc.V.members()) {
    if (Name == "id" || Name == "deadline_ms")
      continue;
    Fields.emplace_back(Name, V.dump(0));
  }
  std::sort(Fields.begin(), Fields.end());
  cache::Hasher H;
  H.update("lcm-router-response-v1");
  for (const auto &[Name, Dumped] : Fields) {
    H.updateU64(Name.size());
    H.update(Name);
    H.updateU64(Dumped.size());
    H.update(Dumped);
  }
  Key = H.digest();
  return true;
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Router::Router(RouterOptions Opts) : Opts(std::move(Opts)) {}

Router::~Router() { shutdown(); }

bool Router::start(std::string &Error) {
  if (Opts.Shards.empty()) {
    Error = "router needs at least one --shard endpoint";
    return false;
  }
  for (const ShardEndpoint &Ep : Opts.Shards) {
    auto S = std::make_unique<Shard>();
    S->Ep = Ep;
    Ring.add(Ep.name(), Opts.VirtualNodes);
    Shards.push_back(std::move(S));
  }
  if (Opts.CacheBytes > 0)
    Cache = std::make_unique<ResponseCache>(Opts.CacheBytes);

  ServerOptions SrvOpts;
  SrvOpts.TcpPort = Opts.TcpPort;
  SrvOpts.UnixPath = Opts.UnixPath;
  SrvOpts.Workers = Opts.Workers;
  SrvOpts.QueueCapacity = Opts.QueueCapacity;
  SrvOpts.MaxFrameBytes = Opts.MaxFrameBytes;
  SrvOpts.Handler = [this](const std::string &Payload) {
    return forward(Payload);
  };
  Srv = std::make_unique<Server>(SrvOpts);
  if (!Srv->start(Error))
    return false;

  HealthRunning.store(true);
  HealthThread = std::thread([this] { healthLoop(); });
  Trace::event("I", "router.lifecycle", "start",
               "shards=" + std::to_string(Shards.size()) +
                   " vnodes=" + std::to_string(Opts.VirtualNodes));
  return true;
}

void Router::shutdown() {
  // Drain the transport first: workers finish their forwards (which still
  // need shard connections), then stop probing and drop warm connections.
  if (Srv)
    Srv->shutdown();
  if (HealthRunning.exchange(false)) {
    HealthCv.notify_all();
    if (HealthThread.joinable())
      HealthThread.join();
  }
  for (auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mu);
    S->Idle.clear();
  }
}

//===----------------------------------------------------------------------===//
// Forwarding
//===----------------------------------------------------------------------===//

bool Router::connectShard(const ShardEndpoint &Ep, Client &C,
                          std::string &Error) {
  bool Ok = Ep.TcpPort >= 0
                ? C.connectTcp(Ep.TcpPort, Error, /*RetryMs=*/0)
                : C.connectUnix(Ep.UnixPath, Error, /*RetryMs=*/0);
  if (Ok)
    C.setRecvTimeoutMs(Opts.ShardRecvTimeoutMs);
  return Ok;
}

bool Router::exchangeWithShard(Shard &S, const std::string &Payload,
                               Value &Response, std::string &Error) {
  // Prefer a warm pooled connection; fall back to a fresh connect.
  Client C;
  bool Reused = false;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (!S.Idle.empty()) {
      C = std::move(S.Idle.back());
      S.Idle.pop_back();
      Reused = true;
    }
  }
  for (;;) {
    if (!C.connected() && !connectShard(S.Ep, C, Error))
      return false;
    if (C.sendPayload(Payload, Error) && C.recvResponse(Response, Error)) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      if (S.Idle.size() < 8)
        S.Idle.push_back(std::move(C));
      return true;
    }
    // A stale pooled connection (the shard restarted behind it) fails on
    // first use; retry exactly once on a fresh connection before charging
    // the shard with a failure.
    C.close();
    if (!Reused)
      return false;
    Reused = false;
  }
}

json::Value Router::forward(const std::string &Payload) {
  Stats::bump("router.requests");
  NumForwarded.fetch_add(1);
  // Latency lands in lcm_request_duration_seconds via the transport's
  // worker loop (Server.cpp), which wraps this handler — so failover
  // retries and backoff are included without double-counting here.
  Trace::Scope T("router.request", "forward",
                 "bytes=" + std::to_string(Payload.size()));

  Value Id;
  const uint64_t Point = routingPoint(Payload, &Id);

  // Response cache (when configured): repeat requests short-circuit here
  // without consuming a shard connection.  Only `ok` responses are stored
  // below, so every error path keeps observing the live fleet.
  cache::Digest CacheKey;
  const bool Cacheable = Cache && ResponseCache::requestKey(Payload, CacheKey);
  if (Cacheable) {
    Value Hit;
    if (Cache->get(CacheKey, Hit)) {
      Hit.set("id", Id);
      T.note("cache", "hit");
      return Hit;
    }
  }

  const std::vector<size_t> Order = Ring.walk(Point);

  std::string LastError = "no shards configured";
  unsigned Attempt = 0;
  // Round 0 prefers shards believed healthy; round 1 retries everyone —
  // a mass-restart (every shard briefly down) must still converge.
  for (unsigned Round = 0; Round != 2 && Attempt < Opts.MaxAttempts;
       ++Round) {
    for (size_t Pos = 0; Pos != Order.size() && Attempt < Opts.MaxAttempts;
         ++Pos) {
      Shard &S = *Shards[Order[Pos]];
      if (Round == 0 && !S.Healthy.load() && healthyCount() != 0)
        continue;
      if (Attempt != 0) {
        NumRetries.fetch_add(1);
        Stats::bump("router.retries");
        const int Backoff =
            std::min(Opts.MaxBackoffMs,
                     Opts.RetryBackoffMs << std::min(Attempt - 1, 5u));
        if (Backoff > 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(Backoff));
      }
      ++Attempt;
      Value Response;
      std::string Error;
      if (exchangeWithShard(S, Payload, Response, Error)) {
        S.Healthy.store(true);
        S.Forwards.fetch_add(1);
        if (Pos != 0 || Round != 0) {
          NumFailovers.fetch_add(1);
          Stats::bump("router.failovers");
        }
        const Value *St = Response.find("status");
        Stats::bump("router.response." +
                    (St && St->isString() ? St->asString()
                                          : std::string("unknown")));
        if (Cacheable && St && St->isString() && St->asString() == "ok") {
          // Stored copies carry a null id; the hit path re-stamps it.
          Value Stored = Response;
          Stored.set("id", Value());
          const size_t Bytes = Stored.dump(0).size() + 64;
          Cache->put(CacheKey, std::move(Stored), Bytes);
        }
        T.note("shard", S.Ep.name());
        T.note("attempts", Attempt);
        return Response;
      }
      S.Healthy.store(false);
      S.Failures.fetch_add(1);
      Stats::bump("router.shard_errors");
      LastError = S.Ep.name() + ": " + Error;
    }
  }

  NumUnavailable.fetch_add(1);
  Stats::bump("router.response.unavailable");
  T.note("status", "unavailable");
  return makeErrorResponse(Id, Status::Unavailable,
                           "no shard available after " +
                               std::to_string(Attempt) +
                               " attempts; last error: " + LastError);
}

//===----------------------------------------------------------------------===//
// Health
//===----------------------------------------------------------------------===//

size_t Router::healthyCount() const {
  size_t N = 0;
  for (const auto &S : Shards)
    N += S->Healthy.load() ? 1 : 0;
  return N;
}

void Router::healthLoop() {
  std::unique_lock<std::mutex> Lock(HealthMu);
  while (HealthRunning.load()) {
    HealthCv.wait_for(Lock,
                      std::chrono::milliseconds(Opts.HealthIntervalMs),
                      [this] { return !HealthRunning.load(); });
    if (!HealthRunning.load())
      return;
    for (auto &S : Shards) {
      if (S->Healthy.load())
        continue;
      Client Probe;
      std::string Error;
      if (connectShard(S->Ep, Probe, Error)) {
        // The probe connection is warm; seed the pool with it.
        {
          std::lock_guard<std::mutex> PoolLock(S->Mu);
          if (S->Idle.size() < 8)
            S->Idle.push_back(std::move(Probe));
        }
        S->Healthy.store(true);
        Stats::bump("router.shard_recoveries");
        Trace::event("I", "router.health", "recovered", S->Ep.name());
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

Router::Counters Router::counters() const {
  Counters C;
  C.Forwarded = NumForwarded.load();
  C.Retries = NumRetries.load();
  C.Failovers = NumFailovers.load();
  C.Unavailable = NumUnavailable.load();
  if (Cache) {
    const ResponseCache::Stats S = Cache->stats();
    C.CacheHits = S.Hits;
    C.CacheMisses = S.Misses;
  }
  return C;
}

std::vector<Router::ShardStatus> Router::shardStatus() const {
  std::vector<ShardStatus> Out;
  Out.reserve(Shards.size());
  for (const auto &S : Shards) {
    ShardStatus St;
    St.Name = S->Ep.name();
    St.Healthy = S->Healthy.load();
    St.Forwards = S->Forwards.load();
    St.Failures = S->Failures.load();
    Out.push_back(std::move(St));
  }
  return Out;
}
