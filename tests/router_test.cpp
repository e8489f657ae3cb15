//===- tests/router_test.cpp - Consistent-hash router unit + e2e tests ----===//
//
// Pins the fleet tier's contracts (docs/FLEET.md):
//
// - HashRing: every walk enumerates all members exactly once, is
//   deterministic, and spreads first-choice ownership across members;
// - routingPoint: depends on exactly the content-defining request fields
//   (ir, pipeline, check/report) — never on id or the validate flag — and
//   handles unparsable payloads deterministically;
// - Router end-to-end over real shards (in-process Servers): requests are
//   answered, repeat programs keep their shard affinity, a downed shard
//   fails over to the next ring node, a shard dying *mid-request* (socket
//   closed after the frame is read, before any reply) is retried
//   elsewhere, shutdown drains in-flight requests, and only a fully dark
//   fleet yields `unavailable`;
// - ResponseCache: keys ignore the envelope (id, deadline) but cover every
//   semantics-bearing field, stored responses carry a null id and the
//   requester's id is stamped on a hit, repeats are answered without
//   touching a shard, hits and misses are counted once (the cache's own
//   counts feed counters() and router.cache.*), and error responses are
//   never cached.  Its LRU is cache::ByteLru, tested in cache_test.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/Router.h"
#include "server/Server.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <netinet/in.h>
#include <set>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lcm;
using namespace lcm::server;
using json::Value;

namespace {

std::string statusOf(const Value &Response) {
  const Value *S = Response.find("status");
  return S && S->isString() ? S->asString() : "(missing)";
}

std::string makePayload(int64_t Id, const std::string &Ir,
                        bool Validate = false) {
  Request R;
  R.Id = Value::number(Id);
  R.Ir = Ir;
  R.Validate = Validate;
  return requestToJson(R).dump(0);
}

/// Distinct well-formed programs: the constant keeps the routing digests
/// apart, so a search over N can find a payload owned by any given shard.
std::string program(int N) {
  return "block b0\n  x = a + " + std::to_string(N) +
         "\n  y = a + " + std::to_string(N) + "\n  z = x + y\n  exit\n";
}

//===----------------------------------------------------------------------===//
// HashRing
//===----------------------------------------------------------------------===//

TEST(HashRing, WalkEnumeratesEveryMemberOnce) {
  HashRing Ring;
  Ring.add("tcp:7001", 64);
  Ring.add("tcp:7002", 64);
  Ring.add("tcp:7003", 64);
  ASSERT_EQ(Ring.members(), 3u);

  for (uint64_t Point : {uint64_t(0), uint64_t(1), ~uint64_t(0),
                         uint64_t(0x9e3779b97f4a7c15ULL)}) {
    std::vector<size_t> Order = Ring.walk(Point);
    ASSERT_EQ(Order.size(), 3u) << "point " << Point;
    std::set<size_t> Distinct(Order.begin(), Order.end());
    EXPECT_EQ(Distinct.size(), 3u) << "duplicate member in walk";
    EXPECT_EQ(Order, Ring.walk(Point)) << "walk must be deterministic";
  }
}

TEST(HashRing, EmptyAndSingleMember) {
  HashRing Empty;
  EXPECT_TRUE(Empty.walk(42).empty());

  HashRing One;
  One.add("tcp:7001", 64);
  EXPECT_EQ(One.walk(42), std::vector<size_t>{0});
}

TEST(HashRing, FirstChoiceOwnershipIsSpread) {
  // With 64 virtual nodes per member, no member should own everything:
  // scan many points and require each member to be the first choice for a
  // reasonable share.
  HashRing Ring;
  Ring.add("tcp:7001", 64);
  Ring.add("tcp:7002", 64);
  Ring.add("tcp:7003", 64);
  std::vector<int> FirstChoice(3, 0);
  constexpr int Points = 3000;
  for (int I = 0; I != Points; ++I) {
    // A splitmix-style spread of the loop counter.
    uint64_t Z = uint64_t(I) + 0x9e3779b97f4a7c15ULL;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    ++FirstChoice[Ring.walk(Z ^ (Z >> 31))[0]];
  }
  for (int N : FirstChoice)
    EXPECT_GT(N, Points / 10) << "a member owns too little of the ring";
}

//===----------------------------------------------------------------------===//
// Routing digest
//===----------------------------------------------------------------------===//

TEST(RoutingPoint, DependsOnContentNotEnvelope) {
  const std::string Ir = program(1);
  const uint64_t P1 = Router::routingPoint(makePayload(1, Ir));
  const uint64_t P2 = Router::routingPoint(makePayload(999, Ir));
  EXPECT_EQ(P1, P2) << "the request id must not move a request";
  EXPECT_EQ(P1, Router::routingPoint(makePayload(1, Ir, /*Validate=*/true)))
      << "the validate flag must not move a request";
  EXPECT_NE(P1, Router::routingPoint(makePayload(1, program(2))))
      << "different programs should land on different points";
}

TEST(RoutingPoint, ExtractsIdAndHandlesGarbage) {
  Value Id;
  Router::routingPoint(makePayload(77, program(0)), &Id);
  EXPECT_TRUE(Id == Value::number(int64_t(77)));

  const uint64_t G1 = Router::routingPoint("not json at all");
  const uint64_t G2 = Router::routingPoint("not json at all");
  EXPECT_EQ(G1, G2) << "unparsable payloads still need stable placement";
}

//===----------------------------------------------------------------------===//
// ResponseCache
//===----------------------------------------------------------------------===//

TEST(ResponseCache, RequestKeyIgnoresEnvelopeAndMemberOrder) {
  cache::Digest K1, K2;
  ASSERT_TRUE(ResponseCache::requestKey(R"({"ir":"x","id":1})", K1));
  ASSERT_TRUE(
      ResponseCache::requestKey(R"({"id":7,"deadline_ms":5,"ir":"x"})", K2));
  EXPECT_TRUE(K1 == K2) << "id/deadline or member order leaked into the key";

  // Every semantics-bearing field must move the key: a validate:true
  // response (carries `validated`) must never answer a validate-less
  // request.
  cache::Digest K3;
  ASSERT_TRUE(ResponseCache::requestKey(R"({"ir":"x","validate":true})", K3));
  EXPECT_FALSE(K3 == K1);

  cache::Digest K4;
  EXPECT_FALSE(ResponseCache::requestKey("[1,2]", K4));
  EXPECT_FALSE(ResponseCache::requestKey("not json", K4));
}

//===----------------------------------------------------------------------===//
// End-to-end over real shards
//===----------------------------------------------------------------------===//

struct Fleet {
  explicit Fleet(unsigned NumShards, bool EnableTestOptions = false) {
    for (unsigned I = 0; I != NumShards; ++I) {
      ServerOptions Opts;
      Opts.TcpPort = 0;
      Opts.Workers = 2;
      Opts.Service.EnableTestOptions = EnableTestOptions;
      auto S = std::make_unique<Server>(Opts);
      std::string Error;
      EXPECT_TRUE(S->start(Error)) << Error;
      Shards.push_back(std::move(S));
    }
  }
  ~Fleet() {
    for (auto &S : Shards)
      S->shutdown();
  }

  RouterOptions routerOptions() const {
    RouterOptions Opts;
    Opts.TcpPort = 0;
    Opts.Workers = 2;
    // Keep failure paths fast: tests that down shards should not sit in
    // hundreds of milliseconds of backoff.
    Opts.RetryBackoffMs = 1;
    Opts.MaxBackoffMs = 4;
    Opts.HealthIntervalMs = 50;
    for (const auto &S : Shards) {
      ShardEndpoint Ep;
      Ep.TcpPort = S->tcpPort();
      Opts.Shards.push_back(Ep);
    }
    return Opts;
  }

  /// A ring identical to the router's, for predicting placement.
  HashRing ring(unsigned VirtualNodes = 64) const {
    HashRing R;
    for (const auto &S : Shards)
      R.add("tcp:" + std::to_string(S->tcpPort()), VirtualNodes);
    return R;
  }

  /// A payload whose failover order starts at shard \p Member.
  std::string payloadOwnedBy(size_t Member) const {
    HashRing R = ring();
    for (int N = 0; N != 4096; ++N) {
      std::string P = makePayload(N, program(N));
      if (R.walk(Router::routingPoint(P))[0] == Member)
        return P;
    }
    ADD_FAILURE() << "no payload found for member " << Member;
    return makePayload(0, program(0));
  }

  std::vector<std::unique_ptr<Server>> Shards;
};

TEST(RouterE2E, ForwardsAndKeepsAffinity) {
  Fleet F(3);
  Router R(F.routerOptions());
  std::string Error;
  ASSERT_TRUE(R.start(Error)) << Error;

  // The same program always lands on the same shard; distinct programs
  // spread out.
  const std::string Hot = F.payloadOwnedBy(1);
  for (int I = 0; I != 8; ++I) {
    Value Response = R.forward(Hot);
    ASSERT_EQ(statusOf(Response), "ok") << Response.dump();
  }
  std::vector<Router::ShardStatus> St = R.shardStatus();
  EXPECT_EQ(St[1].Forwards, 8u) << "affinity broken: owner did not serve";
  EXPECT_EQ(St[0].Forwards + St[2].Forwards, 0u);
  EXPECT_EQ(R.counters().Failovers, 0u);
  EXPECT_EQ(R.counters().Unavailable, 0u);
  // No response cache configured: nothing to count.
  EXPECT_EQ(R.responseCache(), nullptr);
  EXPECT_EQ(R.counters().CacheHits + R.counters().CacheMisses, 0u);
  R.shutdown();
}

TEST(RouterE2E, ResponseCacheAnswersRepeatsWithoutForwarding) {
  Fleet F(2);
  RouterOptions Opts = F.routerOptions();
  Opts.CacheBytes = 1 << 20;
  Router R(Opts);
  std::string Error;
  ASSERT_TRUE(R.start(Error)) << Error;
  const uint64_t StatHits0 = Stats::get("router.cache.hits");
  const uint64_t StatMisses0 = Stats::get("router.cache.misses");

  // Same semantics under a different envelope: the repeat is served from
  // the router, never reaches a shard, and carries its own id.
  Value A = R.forward(makePayload(1, program(7)));
  ASSERT_EQ(statusOf(A), "ok") << A.dump();
  EXPECT_TRUE(*A.find("id") == Value::number(int64_t(1)))
      << "the forwarded response lost its id to the stored copy";
  // The stored copy is charged with its id nulled.
  Value Stored = A;
  Stored.set("id", Value());
  ASSERT_NE(R.responseCache(), nullptr);
  EXPECT_EQ(R.responseCache()->stats().BytesResident,
            Stored.dump(0).size() + 64);
  Value B = R.forward(makePayload(2, program(7)));
  ASSERT_EQ(statusOf(B), "ok") << B.dump();
  EXPECT_TRUE(*B.find("id") == Value::number(int64_t(2)));
  EXPECT_TRUE(*A.find("ir") == *B.find("ir"));
  EXPECT_EQ(R.counters().CacheHits, 1u);
  EXPECT_EQ(R.counters().CacheMisses, 1u);
  uint64_t ShardForwards = 0;
  for (const Router::ShardStatus &S : R.shardStatus())
    ShardForwards += S.Forwards;
  EXPECT_EQ(ShardForwards, 1u) << "repeat request reached a shard";

  // validate=true is a different key: it must forward.
  Value C = R.forward(makePayload(3, program(7), /*Validate=*/true));
  ASSERT_EQ(statusOf(C), "ok") << C.dump();
  EXPECT_EQ(R.counters().CacheMisses, 2u);

  // Error responses are never cached — a later fix (or recovered shard)
  // must be observed, so identical bad requests keep forwarding.
  Value E1 = R.forward(makePayload(4, "not ir"));
  Value E2 = R.forward(makePayload(5, "not ir"));
  EXPECT_EQ(statusOf(E1), statusOf(E2));
  EXPECT_NE(statusOf(E1), "ok");
  EXPECT_EQ(R.counters().CacheHits, 1u)
      << "an error response was served from the cache";
  EXPECT_EQ(Stats::get("router.cache.hits") - StatHits0, 1u);
  EXPECT_EQ(Stats::get("router.cache.misses") - StatMisses0,
            R.counters().CacheMisses);
  R.shutdown();
}

TEST(RouterE2E, ClientsCannotTellARouterFromAShard) {
  Fleet F(2);
  Router R(F.routerOptions());
  std::string Error;
  ASSERT_TRUE(R.start(Error)) << Error;
  ASSERT_GT(R.tcpPort(), 0);

  Client Cl;
  ASSERT_TRUE(Cl.connectTcp(R.tcpPort(), Error, /*RetryMs=*/2000)) << Error;
  for (int64_t Id = 0; Id != 10; ++Id) {
    Request Req;
    Req.Id = Value::number(Id);
    Req.Ir = program(int(Id));
    Req.Validate = true;
    Value Response;
    ASSERT_TRUE(Cl.call(Req, Response, Error)) << Error;
    ASSERT_EQ(statusOf(Response), "ok") << Response.dump();
    EXPECT_TRUE(*Response.find("id") == Req.Id);
    EXPECT_TRUE(Response.find("validated")->asBool());
  }
  R.shutdown();
}

TEST(RouterE2E, DownedShardFailsOver) {
  Fleet F(3);
  Router R(F.routerOptions());
  std::string Error;
  ASSERT_TRUE(R.start(Error)) << Error;

  const std::string Doomed = F.payloadOwnedBy(0);
  ASSERT_EQ(statusOf(R.forward(Doomed)), "ok");

  // Kill the owner; the same program must now be answered by another
  // shard, not dropped.
  F.Shards[0]->shutdown();
  for (int I = 0; I != 4; ++I) {
    Value Response = R.forward(Doomed);
    ASSERT_EQ(statusOf(Response), "ok") << Response.dump();
  }
  EXPECT_GE(R.counters().Failovers, 4u);
  EXPECT_EQ(R.counters().Unavailable, 0u);
  std::vector<Router::ShardStatus> St = R.shardStatus();
  EXPECT_EQ(St[0].Forwards, 1u);
  EXPECT_EQ(St[1].Forwards + St[2].Forwards, 4u);
  R.shutdown();
}

TEST(RouterE2E, AllShardsDownAnswersUnavailable) {
  Fleet F(2);
  RouterOptions Opts = F.routerOptions();
  Opts.MaxAttempts = 3;
  Router R(Opts);
  std::string Error;
  ASSERT_TRUE(R.start(Error)) << Error;

  F.Shards[0]->shutdown();
  F.Shards[1]->shutdown();
  Value Response = R.forward(makePayload(5, program(5)));
  EXPECT_EQ(statusOf(Response), "unavailable") << Response.dump();
  EXPECT_TRUE(*Response.find("id") == Value::number(int64_t(5)))
      << "even an unavailable answer must echo the id";
  EXPECT_GE(R.counters().Unavailable, 1u);
  R.shutdown();
}

/// A raw listener that accepts one connection, reads a little, then slams
/// it shut — a shard dying *mid-request*, after the frame was sent but
/// before any reply.  Keeps its port bound so the router charges a real
/// IO error, not a connection refusal.
struct MidRequestKiller {
  MidRequestKiller() {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(ListenFd, 0);
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)),
              0);
    socklen_t Len = sizeof(Addr);
    ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len);
    Port = ntohs(Addr.sin_port);
    EXPECT_EQ(::listen(ListenFd, 8), 0);
    Acceptor = std::thread([this] {
      for (;;) {
        int Fd = ::accept(ListenFd, nullptr, nullptr);
        if (Fd < 0)
          return; // Listener closed: test over.
        char Buf[256];
        ssize_t Ignored = ::read(Fd, Buf, sizeof(Buf));
        (void)Ignored;
        ::close(Fd);
        Dropped.fetch_add(1);
      }
    });
  }
  ~MidRequestKiller() {
    ::shutdown(ListenFd, SHUT_RDWR);
    ::close(ListenFd);
    if (Acceptor.joinable())
      Acceptor.join();
  }
  int ListenFd = -1;
  int Port = 0;
  std::thread Acceptor;
  std::atomic<int> Dropped{0};
};

TEST(RouterE2E, ShardKilledMidRequestIsRetriedElsewhere) {
  // Shard 0 is the killer (reads the frame, closes); shard 1 is real.
  MidRequestKiller Killer;
  ServerOptions RealOpts;
  RealOpts.TcpPort = 0;
  RealOpts.Workers = 2;
  Server Real(RealOpts);
  std::string Error;
  ASSERT_TRUE(Real.start(Error)) << Error;

  RouterOptions Opts;
  Opts.TcpPort = 0;
  Opts.RetryBackoffMs = 1;
  Opts.MaxBackoffMs = 4;
  Opts.HealthIntervalMs = 50;
  ShardEndpoint KillerEp, RealEp;
  KillerEp.TcpPort = Killer.Port;
  RealEp.TcpPort = Real.tcpPort();
  Opts.Shards = {KillerEp, RealEp};
  Router R(Opts);
  ASSERT_TRUE(R.start(Error)) << Error;

  // Find a payload whose failover order starts at the killer, so the
  // mid-request death is on the request's primary path.
  HashRing Ring;
  Ring.add(KillerEp.name(), Opts.VirtualNodes);
  Ring.add(RealEp.name(), Opts.VirtualNodes);
  std::string Payload;
  for (int N = 0; N != 4096 && Payload.empty(); ++N) {
    std::string P = makePayload(N, program(N));
    if (Ring.walk(Router::routingPoint(P))[0] == 0)
      Payload = P;
  }
  ASSERT_FALSE(Payload.empty());

  Value Response = R.forward(Payload);
  EXPECT_EQ(statusOf(Response), "ok") << Response.dump();
  EXPECT_GE(Killer.Dropped.load(), 1)
      << "the payload never reached the dying shard";
  EXPECT_GE(R.counters().Retries, 1u);
  EXPECT_GE(R.counters().Failovers, 1u);
  EXPECT_EQ(R.counters().Unavailable, 0u);
  std::vector<Router::ShardStatus> St = R.shardStatus();
  EXPECT_EQ(St[1].Forwards, 1u) << "the real shard must have answered";
  R.shutdown();
}

TEST(RouterE2E, RecoveredShardReturnsToRotation) {
  Fleet F(2);
  RouterOptions Opts = F.routerOptions();
  Router R(Opts);
  std::string Error;
  ASSERT_TRUE(R.start(Error)) << Error;

  const std::string Payload = F.payloadOwnedBy(0);
  F.Shards[0]->shutdown();
  ASSERT_EQ(statusOf(R.forward(Payload)), "ok"); // Served by shard 1.

  // Resurrect shard 0 on a *new* Server bound to the same port.
  const int OldPort = F.Shards[0]->tcpPort();
  ServerOptions SrvOpts;
  SrvOpts.TcpPort = OldPort;
  SrvOpts.Workers = 2;
  Server Reborn(SrvOpts);
  ASSERT_TRUE(Reborn.start(Error)) << Error;

  // The health loop (50ms period here) must notice and route the owner's
  // traffic back to it.
  const uint64_t Before = R.shardStatus()[0].Forwards;
  bool Returned = false;
  for (int I = 0; I != 100 && !Returned; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(statusOf(R.forward(Payload)), "ok");
    Returned = R.shardStatus()[0].Forwards > Before;
  }
  EXPECT_TRUE(Returned) << "owner never returned to rotation";
  R.shutdown();
  Reborn.shutdown();
}

TEST(RouterE2E, ShutdownDrainsInFlightRequests) {
  Fleet F(2, /*EnableTestOptions=*/true);
  Router R(F.routerOptions());
  std::string Error;
  ASSERT_TRUE(R.start(Error)) << Error;

  // Two slow requests through the router's real socket path, then a
  // shutdown racing them: both must still be answered `ok` — the drain
  // contract clients rely on when a router is SIGTERMed (lcm_router
  // forwards the same shutdown() call).
  Client Cl;
  ASSERT_TRUE(Cl.connectTcp(R.tcpPort(), Error, /*RetryMs=*/2000)) << Error;
  for (int64_t Id = 0; Id != 2; ++Id) {
    Request Req;
    Req.Id = Value::number(Id);
    Req.Ir = program(int(Id));
    Req.TestSleepMs = 300;
    ASSERT_TRUE(Cl.sendPayload(requestToJson(Req).dump(0), Error)) << Error;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::thread Drainer([&R] { R.shutdown(); });
  int Ok = 0;
  for (int I = 0; I != 2; ++I) {
    Value Response;
    ASSERT_TRUE(Cl.recvResponse(Response, Error)) << Error;
    if (statusOf(Response) == "ok")
      ++Ok;
    else
      ADD_FAILURE() << "in-flight request lost in drain: "
                    << Response.dump();
  }
  Drainer.join();
  EXPECT_EQ(Ok, 2);
}

} // namespace
