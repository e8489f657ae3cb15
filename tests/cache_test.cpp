//===- tests/cache_test.cpp - The content-addressed result cache ----------===//
//
// Pins the acceptance contract of docs/CACHE.md across every layer of the
// cache subsystem:
//
// - content hashing: stable keys, hex round-trip, and strict separation —
//   any config bit that can change the optimized output changes the key;
// - ByteLru: byte-budgeted eviction in recency order, refresh on hit,
//   the budget kept after every put (refreshes included), oversized
//   entries refused, counters accurate locally and in the Stats registry;
//   the result cache's 8 stripes sum to its budget;
// - single-flight: K concurrent identical computations collapse to one;
//   deterministic failures are shared, a cancelled leader does NOT poison
//   followers (they re-elect), a follower's own deadline only bounds its
//   own wait;
// - disk spill: entries survive "restarts" (new instances over the same
//   directory), a schema-version bump invalidates old files from their
//   names alone, corrupt files degrade to misses, budgets are pruned;
// - the Service: identical requests answer byte-identically with
//   `cached: true` on the second hit, different configs never share
//   entries, and K concurrent identical requests run the pipeline exactly
//   once (asserted via the global pipeline-run counter).
//
//===----------------------------------------------------------------------===//

#include "cache/ByteLru.h"
#include "cache/ContentHash.h"
#include "cache/DiskCache.h"
#include "cache/ResultCache.h"
#include "cache/SingleFlight.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "server/Service.h"
#include "support/Json.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <sys/time.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lcm;
using namespace lcm::cache;

namespace {

std::string tempDir(const std::string &Tag) {
  static std::atomic<unsigned> Counter{0};
  return "/tmp/lcm_cache_test_" + std::to_string(::getpid()) + "_" + Tag +
         "_" + std::to_string(Counter.fetch_add(1));
}

void removeTree(const std::string &Dir) {
  std::string Cmd = "rm -rf '" + Dir + "'";
  int Ignored = std::system(Cmd.c_str());
  (void)Ignored;
}

CacheEntry makeEntry(const std::string &Ir, uint64_t Changes = 1) {
  CacheEntry E;
  E.Ir = Ir;
  E.Changes = Changes;
  return E;
}

PipelineFingerprint makeFingerprint(const std::string &Pipeline) {
  PipelineFingerprint FP;
  FP.Pipeline = Pipeline;
  return FP;
}

//===----------------------------------------------------------------------===//
// Content hashing
//===----------------------------------------------------------------------===//

TEST(ContentHash, HexRoundTrip) {
  Digest D = hashBytes("some program text");
  EXPECT_EQ(D.hex().size(), 32u);

  Digest Back;
  ASSERT_TRUE(Digest::fromHex(D.hex(), Back));
  EXPECT_EQ(D, Back);

  EXPECT_FALSE(Digest::fromHex("tooshort", Back));
  EXPECT_FALSE(Digest::fromHex(std::string(32, 'g'), Back));
  EXPECT_FALSE(Digest::fromHex(D.hex() + "00", Back));
}

TEST(ContentHash, DeterministicAndSensitive) {
  EXPECT_EQ(hashBytes("abc"), hashBytes("abc"));
  EXPECT_NE(hashBytes("abc"), hashBytes("abd"));
  EXPECT_NE(hashBytes("abc"), hashBytes("abc "));
  EXPECT_NE(hashBytes(""), hashBytes(std::string_view("\0", 1)));
}

TEST(ContentHash, IncrementalMatchesOneShot) {
  Hasher H;
  H.update("hello ").update("world");
  EXPECT_EQ(H.digest(), hashBytes("hello world"));
}

TEST(ContentHash, EveryFingerprintBitSeparatesKeys) {
  const std::string Ir = "block b0\n  x = a + b\n  exit\n";
  const PipelineFingerprint Base = makeFingerprint("lcse,lcm");

  // Identical inputs agree.
  EXPECT_EQ(requestKey(Ir, Base), requestKey(Ir, Base));

  // Different program.
  EXPECT_NE(requestKey(Ir + " ", Base), requestKey(Ir, Base));

  // Different pass list.
  PipelineFingerprint P = Base;
  P.Pipeline = "lcse,bcm";
  EXPECT_NE(requestKey(Ir, P), requestKey(Ir, Base));

  // Different limits.
  PipelineFingerprint L = Base;
  L.Limits.MaxBlocks = Base.Limits.MaxBlocks + 1;
  EXPECT_NE(requestKey(Ir, L), requestKey(Ir, Base));

  // Check flag and its strength.
  PipelineFingerprint C = Base;
  C.Check = true;
  C.CheckRuns = 3;
  EXPECT_NE(requestKey(Ir, C), requestKey(Ir, Base));
  PipelineFingerprint C5 = C;
  C5.CheckRuns = 5;
  EXPECT_NE(requestKey(Ir, C5), requestKey(Ir, C));

  // Report flag.
  PipelineFingerprint R = Base;
  R.Report = true;
  EXPECT_NE(requestKey(Ir, R), requestKey(Ir, Base));
}

TEST(ContentHash, StreamingFunctionKeyMatchesStringKey) {
  // The hot path keys by printing the function straight into the hasher
  // (no canonical-IR string).  Both forms must agree on every program, or
  // the streaming path would silently split the cache.
  const char *Programs[] = {
      "block b0\n  exit\n",
      "func demo\nblock entry\n  x = a + b\n  goto l\n"
      "block l\n  y = x + 1\n  c = y > 0\n  if c then l else done\n"
      "block done\n  z = min x y\n  exit\n",
      "block b0\n  x = -5\n  y = x * x\n  br b1 b2\n"
      "block b1\n  exit\n"
      "block b2\n  goto b1\n",
  };
  const PipelineFingerprint FP = makeFingerprint("lcse,lcm,cleanup");
  for (const char *Text : Programs) {
    ParseResult P = parseFunction(Text);
    ASSERT_TRUE(P.Ok) << P.Error;
    EXPECT_EQ(requestKey(P.Fn, FP), requestKey(printFunction(P.Fn), FP))
        << Text;
  }
}

//===----------------------------------------------------------------------===//
// ByteLru: the one LRU behind the memory tier, the retained-IR tier and the
// router's response cache
//===----------------------------------------------------------------------===//

TEST(ByteLru, PutGetRoundTrip) {
  ByteLru<CacheEntry> Cache(64u << 20);
  CacheEntry E = makeEntry("optimized text", 7);
  E.Checked = true;
  E.CheckRuns = 3;
  E.ReportJson = "{\"k\":1}";
  const Digest K = hashBytes("key");

  CacheEntry Out;
  EXPECT_FALSE(Cache.get(K, Out));
  Cache.put(K, E);
  ASSERT_TRUE(Cache.get(K, Out));
  EXPECT_EQ(Out.Ir, E.Ir);
  EXPECT_EQ(Out.Changes, 7u);
  EXPECT_TRUE(Out.Checked);
  EXPECT_EQ(Out.CheckRuns, 3u);
  EXPECT_EQ(Out.ReportJson, E.ReportJson);

  ByteLru<CacheEntry>::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Insertions, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.BytesResident, E.bytes());
}

TEST(ByteLru, EvictsColdEntryAfterTouch) {
  // Each entry charges Ir.size() + 96 bytes; a 400-byte budget holds two
  // 100-byte entries.
  ByteLru<CacheEntry> Cache(400);
  const Digest K1 = hashBytes("k1"), K2 = hashBytes("k2"),
               K3 = hashBytes("k3");
  Cache.put(K1, makeEntry(std::string(100, 'a')));
  Cache.put(K2, makeEntry(std::string(100, 'b')));

  // Touch K1 so K2 is the cold end, then overflow.
  CacheEntry Out;
  ASSERT_TRUE(Cache.get(K1, Out));
  Cache.put(K3, makeEntry(std::string(100, 'c')));

  EXPECT_TRUE(Cache.get(K1, Out));
  EXPECT_FALSE(Cache.get(K2, Out)) << "cold entry should have been evicted";
  EXPECT_TRUE(Cache.get(K3, Out));

  ByteLru<CacheEntry>::Stats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_LE(S.BytesResident, 400u);
}

TEST(ByteLru, BudgetHoldsUnderManyPuts) {
  ByteLru<CacheEntry> Cache(1024);
  for (int I = 0; I != 200; ++I) {
    Cache.put(hashBytes("key" + std::to_string(I % 50)),
              makeEntry(std::string(I % 7 * 40, char('a' + I % 26))));
    ASSERT_LE(Cache.stats().BytesResident, 1024u) << "after put " << I;
  }
  EXPECT_GT(Cache.stats().Evictions, 0u);
}

TEST(ByteLru, OversizedEntryIsNotAdmitted) {
  ByteLru<CacheEntry> Cache(256);
  const Digest Small = hashBytes("small");
  Cache.put(Small, makeEntry("tiny"));
  Cache.put(hashBytes("huge"), makeEntry(std::string(10'000, 'x')));

  CacheEntry Out;
  EXPECT_FALSE(Cache.get(hashBytes("huge"), Out));
  EXPECT_TRUE(Cache.get(Small, Out))
      << "an inadmissible giant must not wipe the cache";
  EXPECT_EQ(Cache.stats().Insertions, 1u);
  EXPECT_EQ(Cache.stats().Evictions, 0u);
}

TEST(ByteLru, RefreshReplacesValue) {
  ByteLru<CacheEntry> Cache(64u << 20);
  const Digest K = hashBytes("k");
  Cache.put(K, makeEntry("first"));
  Cache.put(K, makeEntry("second"));
  CacheEntry Out;
  ASSERT_TRUE(Cache.get(K, Out));
  EXPECT_EQ(Out.Ir, "second");
  EXPECT_EQ(Cache.stats().Entries, 1u);
  EXPECT_EQ(Cache.stats().BytesResident, makeEntry("second").bytes());
}

TEST(ByteLru, RefreshWithALargerValueEvictsToKeepBudget) {
  // 106 + 246 bytes resident of 400; refreshing K1 with a 346-byte value
  // must evict K2 rather than hold 592 bytes.
  ByteLru<CacheEntry> Cache(400);
  const Digest K1 = hashBytes("k1"), K2 = hashBytes("k2");
  Cache.put(K1, makeEntry(std::string(10, 'a')));
  Cache.put(K2, makeEntry(std::string(150, 'b')));
  ASSERT_EQ(Cache.stats().BytesResident, 352u);

  Cache.put(K1, makeEntry(std::string(250, 'c')));
  ByteLru<CacheEntry>::Stats S = Cache.stats();
  EXPECT_LE(S.BytesResident, 400u);
  EXPECT_EQ(S.BytesResident, 346u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 1u);

  CacheEntry Out;
  EXPECT_FALSE(Cache.get(K2, Out));
  ASSERT_TRUE(Cache.get(K1, Out));
  EXPECT_EQ(Out.Ir, std::string(250, 'c'));
}

TEST(ByteLru, ExplicitChargeEvictsByBytes) {
  // The router's shape: documents without a bytes() of their own, charged
  // by the caller.
  ByteLru<json::Value> Cache(700);
  const Digest KA{1, 0}, KB{2, 0}, KC{3, 0};
  Cache.put(KA, json::Value::str("a"), 300);
  Cache.put(KB, json::Value::str("b"), 300);

  json::Value Out;
  ASSERT_TRUE(Cache.get(KA, Out)); // A becomes most recently used.
  EXPECT_EQ(Out.asString(), "a");

  Cache.put(KC, json::Value::str("c"), 300); // Evicts B, the LRU tail.
  EXPECT_FALSE(Cache.get(KB, Out));
  EXPECT_TRUE(Cache.get(KA, Out));
  EXPECT_TRUE(Cache.get(KC, Out));

  ByteLru<json::Value>::Stats S = Cache.stats();
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.BytesResident, 600u);
}

TEST(ByteLru, ZeroBudgetAdmitsNothing) {
  ByteLru<CacheEntry> Cache(0);
  const Digest K = hashBytes("k");
  Cache.put(K, makeEntry("x"));
  CacheEntry Out;
  EXPECT_FALSE(Cache.get(K, Out));
  EXPECT_EQ(Cache.stats().Entries, 0u);
}

TEST(ByteLru, StatNamesBumpTheGlobalRegistry) {
  ByteLru<CacheEntry> Cache(300, {"test.bytelru.hits", "test.bytelru.misses",
                                  "test.bytelru.insertions",
                                  "test.bytelru.evictions"});
  const uint64_t H0 = lcm::Stats::get("test.bytelru.hits"),
                 M0 = lcm::Stats::get("test.bytelru.misses"),
                 I0 = lcm::Stats::get("test.bytelru.insertions"),
                 E0 = lcm::Stats::get("test.bytelru.evictions");
  CacheEntry Out;
  Cache.get(hashBytes("a"), Out);
  Cache.put(hashBytes("a"), makeEntry(std::string(100, 'a')));
  Cache.put(hashBytes("b"), makeEntry(std::string(100, 'b')));
  Cache.get(hashBytes("b"), Out);
  ByteLru<CacheEntry>::Stats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(lcm::Stats::get("test.bytelru.hits") - H0, S.Hits);
  EXPECT_EQ(lcm::Stats::get("test.bytelru.misses") - M0, S.Misses);
  EXPECT_EQ(lcm::Stats::get("test.bytelru.insertions") - I0, S.Insertions);
  EXPECT_EQ(lcm::Stats::get("test.bytelru.evictions") - E0, S.Evictions);
}

TEST(ByteLru, ConcurrentPutsAndGetsKeepTheBudget) {
  ByteLru<CacheEntry> Cache(2048);
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T)
    Workers.emplace_back([&, T] {
      CacheEntry Out;
      for (int I = 0; I != 500; ++I) {
        const Digest K = hashBytes("key" + std::to_string((I * 7 + T) % 40));
        if (!Cache.get(K, Out))
          Cache.put(K, makeEntry(std::string((I + T) % 5 * 50, 'x')));
      }
    });
  for (std::thread &W : Workers)
    W.join();
  ByteLru<CacheEntry>::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits + S.Misses, 2000u);
  EXPECT_LE(S.BytesResident, 2048u);
  EXPECT_EQ(S.Insertions, S.Misses) << "every miss puts an admissible entry";
  // Two threads missing the same key both put; the second replaces the
  // first without an eviction.
  EXPECT_GE(S.Insertions - S.Evictions, S.Entries);
}

TEST(ResultCacheTest, MemoryTierSumsStripesAndBumpsCacheMem) {
  ResultCacheConfig Config;
  Config.MemoryBytes = 8 * 1024; // 1 KiB per stripe.
  ResultCache Cache(Config);
  const uint64_t I0 = lcm::Stats::get("cache.mem.insertions"),
                 E0 = lcm::Stats::get("cache.mem.evictions");
  for (int I = 0; I != 300; ++I)
    Cache.put(hashBytes("key" + std::to_string(I)),
              makeEntry(std::string(200, 'x')));
  const ResultCache::Stats S = Cache.stats();
  EXPECT_LE(S.Memory.BytesResident, Config.MemoryBytes);
  EXPECT_GT(S.Memory.Evictions, 0u);
  EXPECT_EQ(S.Memory.Insertions, 300u);
  EXPECT_EQ(S.Memory.Insertions - S.Memory.Evictions, S.Memory.Entries);
  EXPECT_EQ(lcm::Stats::get("cache.mem.insertions") - I0, 300u);
  EXPECT_EQ(lcm::Stats::get("cache.mem.evictions") - E0, S.Memory.Evictions);
}

//===----------------------------------------------------------------------===//
// Single-flight
//===----------------------------------------------------------------------===//

TEST(SingleFlightTest, ConcurrentIdenticalKeysComputeOnce) {
  SingleFlight Flight;
  const Digest K = hashBytes("the one key");
  std::atomic<int> ComputeRuns{0};
  constexpr int Threads = 8;

  auto Compute = [&]() -> SingleFlight::Result {
    ComputeRuns.fetch_add(1);
    // Hold the flight open long enough for every sibling to join it.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return SingleFlight::Result::value(makeEntry("result"));
  };

  std::vector<std::thread> Pool;
  std::vector<SingleFlight::Result> Results(Threads);
  std::vector<SingleFlight::Role> Roles(Threads);
  for (int I = 0; I != Threads; ++I)
    Pool.emplace_back([&, I] {
      Results[I] = Flight.run(K, nullptr, Compute, &Roles[I]);
    });
  for (std::thread &T : Pool)
    T.join();

  EXPECT_EQ(ComputeRuns.load(), 1);
  int Leaders = 0;
  for (int I = 0; I != Threads; ++I) {
    ASSERT_EQ(Results[I].K, SingleFlight::Result::Kind::Value);
    EXPECT_EQ(Results[I].Entry.Ir, "result");
    Leaders += Roles[I] == SingleFlight::Role::Leader;
  }
  EXPECT_EQ(Leaders, 1);
  SingleFlight::Stats S = Flight.stats();
  EXPECT_EQ(S.LeaderRuns, 1u);
  EXPECT_EQ(S.Coalesced, uint64_t(Threads - 1));
}

TEST(SingleFlightTest, DistinctKeysDoNotCoalesce) {
  SingleFlight Flight;
  std::atomic<int> ComputeRuns{0};
  auto Compute = [&]() -> SingleFlight::Result {
    ComputeRuns.fetch_add(1);
    return SingleFlight::Result::value(makeEntry("x"));
  };
  std::vector<std::thread> Pool;
  for (int I = 0; I != 4; ++I)
    Pool.emplace_back([&, I] {
      Flight.run(hashBytes("key" + std::to_string(I)), nullptr, Compute);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(ComputeRuns.load(), 4);
  EXPECT_EQ(Flight.stats().Coalesced, 0u);
}

TEST(SingleFlightTest, DeterministicErrorIsSharedWithFollowers) {
  SingleFlight Flight;
  const Digest K = hashBytes("failing key");
  std::atomic<int> ComputeRuns{0};
  auto Compute = [&]() -> SingleFlight::Result {
    ComputeRuns.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return SingleFlight::Result::error("pass broke the verifier", 42);
  };

  constexpr int Threads = 4;
  std::vector<std::thread> Pool;
  std::vector<SingleFlight::Result> Results(Threads);
  for (int I = 0; I != Threads; ++I)
    Pool.emplace_back(
        [&, I] { Results[I] = Flight.run(K, nullptr, Compute); });
  for (std::thread &T : Pool)
    T.join();

  EXPECT_EQ(ComputeRuns.load(), 1)
      << "a deterministic failure must not be retried per follower";
  for (const SingleFlight::Result &R : Results) {
    EXPECT_EQ(R.K, SingleFlight::Result::Kind::Error);
    EXPECT_EQ(R.Error, "pass broke the verifier");
    EXPECT_EQ(R.Code, 42);
  }
}

TEST(SingleFlightTest, CancelledLeaderDoesNotPoisonFollowers) {
  SingleFlight Flight;
  const Digest K = hashBytes("contested key");
  std::atomic<int> ComputeRuns{0};

  // The first computation "hits its deadline"; any re-elected leader
  // succeeds.  Followers must end up with the value, not the leader's
  // cancellation.
  auto Compute = [&]() -> SingleFlight::Result {
    int Run = ComputeRuns.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    if (Run == 0)
      return SingleFlight::Result::cancelled("deadline exceeded");
    return SingleFlight::Result::value(makeEntry("recovered"));
  };

  constexpr int Threads = 4;
  std::vector<std::thread> Pool;
  std::vector<SingleFlight::Result> Results(Threads);
  std::atomic<int> Started{0};
  for (int I = 0; I != Threads; ++I)
    Pool.emplace_back([&, I] {
      // Thread 0 leads; the rest join its flight before it finishes.
      if (I != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Started.fetch_add(1);
      Results[I] = Flight.run(K, nullptr, Compute);
    });
  for (std::thread &T : Pool)
    T.join();

  // The first (cancelled) run plus at least one successful re-run.
  EXPECT_GE(ComputeRuns.load(), 2);
  int Cancelled = 0, Values = 0;
  for (const SingleFlight::Result &R : Results) {
    Cancelled += R.K == SingleFlight::Result::Kind::Cancelled;
    if (R.K == SingleFlight::Result::Kind::Value) {
      EXPECT_EQ(R.Entry.Ir, "recovered");
      ++Values;
    }
  }
  EXPECT_EQ(Cancelled, 1) << "only the cancelled leader itself gives up";
  EXPECT_EQ(Values, Threads - 1);
  EXPECT_GE(Flight.stats().Retries, 1u);
}

TEST(SingleFlightTest, FollowerDeadlineBoundsItsOwnWait) {
  SingleFlight Flight;
  const Digest K = hashBytes("slow key");

  std::atomic<bool> LeaderDone{false};
  std::thread Leader([&] {
    Flight.run(K, nullptr, [&]() -> SingleFlight::Result {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      LeaderDone.store(true);
      return SingleFlight::Result::value(makeEntry("slow"));
    });
  });

  // Give the leader time to register its flight, then join with an
  // already-short deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  CancelToken Impatient;
  Impatient.setTimeoutMs(50);
  SingleFlight::Result R = Flight.run(K, &Impatient, []() {
    ADD_FAILURE() << "follower must not compute while a flight is active";
    return SingleFlight::Result::error("unreachable");
  });

  EXPECT_EQ(R.K, SingleFlight::Result::Kind::Cancelled);
  EXPECT_FALSE(LeaderDone.load())
      << "the follower should have given up before the leader finished";
  Leader.join();
}

//===----------------------------------------------------------------------===//
// Disk cache
//===----------------------------------------------------------------------===//

struct DiskCacheTest : testing::Test {
  std::string Dir = tempDir("disk");
  ~DiskCacheTest() override { removeTree(Dir); }

  DiskCache::Options options(size_t MaxBytes = 256u << 20) {
    DiskCache::Options O;
    O.Dir = Dir;
    O.MaxBytes = MaxBytes;
    return O;
  }
};

TEST_F(DiskCacheTest, RoundTripAndRestartPersistence) {
  const Digest K = hashBytes("persisted");
  CacheEntry E = makeEntry("func text", 5);
  E.Checked = true;
  E.CheckRuns = 2;
  E.ReportJson = "{\"schema\":\"lcm-run-report-v1\"}";
  E.ProfileJson = "{\"schema\":\"lcm-profile-v1\",\"edges\":[]}";

  {
    DiskCache Cache(options());
    std::string Error;
    ASSERT_TRUE(Cache.open(Error)) << Error;
    CacheEntry Out;
    EXPECT_FALSE(Cache.get(K, Out));
    Cache.put(K, E);
    ASSERT_TRUE(Cache.get(K, Out));
    EXPECT_EQ(Out.Ir, E.Ir);
  }

  // A fresh instance over the same directory — the daemon restarting.
  DiskCache Reopened(options());
  std::string Error;
  ASSERT_TRUE(Reopened.open(Error)) << Error;
  CacheEntry Out;
  ASSERT_TRUE(Reopened.get(K, Out));
  EXPECT_EQ(Out.Ir, E.Ir);
  EXPECT_EQ(Out.Changes, 5u);
  EXPECT_TRUE(Out.Checked);
  EXPECT_EQ(Out.CheckRuns, 2u);
  EXPECT_EQ(Out.ReportJson, E.ReportJson);
  EXPECT_EQ(Out.ProfileJson, E.ProfileJson);
}

TEST_F(DiskCacheTest, VersionBumpInvalidatesOldEntries) {
  {
    DiskCache Cache(options());
    std::string Error;
    ASSERT_TRUE(Cache.open(Error)) << Error;
    Cache.put(hashBytes("current"), makeEntry("current entry"));
  }

  // Simulate an entry persisted by a binary with an older schema: same
  // directory, older version stamp in the name.
  const std::string StaleName =
      "v" + std::to_string(CacheSchemaVersion - 1) + "-" +
      hashBytes("stale").hex() + ".lcmc";
  {
    std::ofstream Stale(Dir + "/" + StaleName);
    Stale << "{\"anything\": true}";
  }

  DiskCache Reopened(options());
  std::string Error;
  ASSERT_TRUE(Reopened.open(Error)) << Error;
  EXPECT_EQ(Reopened.stats().Invalidated, 1u);
  EXPECT_NE(::access((Dir + "/" + StaleName).c_str(), F_OK), 0)
      << "stale-version file should have been unlinked";
  CacheEntry Out;
  EXPECT_TRUE(Reopened.get(hashBytes("current"), Out))
      << "current-version entries must survive the sweep";
}

TEST_F(DiskCacheTest, CorruptEntryDegradesToMiss) {
  DiskCache Cache(options());
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;

  const Digest K = hashBytes("soon corrupt");
  Cache.put(K, makeEntry("fine"));

  // Overwrite the entry file with garbage.
  const std::string Path =
      Dir + "/v" + std::to_string(CacheSchemaVersion) + "-" + K.hex() +
      ".lcmc";
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "not json at all {{{";
  }

  CacheEntry Out;
  EXPECT_FALSE(Cache.get(K, Out));
  EXPECT_NE(::access(Path.c_str(), F_OK), 0)
      << "corrupt file should have been unlinked";
  EXPECT_FALSE(Cache.get(K, Out)) << "and it stays a miss";
}

TEST_F(DiskCacheTest, OpenPrunesOverBudgetByRecency) {
  const Digest Old = hashBytes("old"), Fresh = hashBytes("fresh");
  {
    DiskCache Cache(options());
    std::string Error;
    ASSERT_TRUE(Cache.open(Error)) << Error;
    Cache.put(Old, makeEntry(std::string(600, 'o')));
    Cache.put(Fresh, makeEntry(std::string(600, 'f')));
  }
  // Age the first entry so mtime ordering is unambiguous.
  const std::string OldPath = Dir + "/v" +
                              std::to_string(CacheSchemaVersion) + "-" +
                              Old.hex() + ".lcmc";
  struct timeval Ancient[2] = {{1000000, 0}, {1000000, 0}};
  ASSERT_EQ(::utimes(OldPath.c_str(), Ancient), 0);

  // A budget that holds one entry but not two.
  DiskCache Reopened(options(/*MaxBytes=*/1000));
  std::string Error;
  ASSERT_TRUE(Reopened.open(Error)) << Error;
  EXPECT_GE(Reopened.stats().Pruned, 1u);

  CacheEntry Out;
  EXPECT_FALSE(Reopened.get(Old, Out)) << "LRU entry should be pruned";
  EXPECT_TRUE(Reopened.get(Fresh, Out)) << "MRU entry should survive";
}

//===----------------------------------------------------------------------===//
// ResultCache facade
//===----------------------------------------------------------------------===//

TEST(ResultCacheTest, ComputeThenMemoryHit) {
  ResultCacheConfig Config;
  ResultCache Cache(Config);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;

  const Digest K = hashBytes("req");
  int ComputeRuns = 0;
  auto Compute = [&]() -> SingleFlight::Result {
    ++ComputeRuns;
    return SingleFlight::Result::value(makeEntry("computed"));
  };

  ResultCache::Lookup First = Cache.getOrCompute(K, nullptr, Compute);
  ASSERT_TRUE(First.ok());
  EXPECT_EQ(First.Src, ResultCache::Source::Computed);
  EXPECT_FALSE(First.cached());

  ResultCache::Lookup Second = Cache.getOrCompute(K, nullptr, Compute);
  ASSERT_TRUE(Second.ok());
  EXPECT_EQ(Second.Src, ResultCache::Source::Memory);
  EXPECT_TRUE(Second.cached());
  EXPECT_EQ(Second.R.Entry.Ir, "computed");
  EXPECT_EQ(ComputeRuns, 1);
}

TEST(ResultCacheTest, DiskHitPromotesAfterRestart) {
  const std::string Dir = tempDir("facade");
  const Digest K = hashBytes("promoted");
  {
    ResultCacheConfig Config;
    Config.DiskDir = Dir;
    ResultCache Cache(Config);
    std::string Error;
    ASSERT_TRUE(Cache.open(Error)) << Error;
    Cache.put(K, makeEntry("warm"));
  }

  ResultCacheConfig Config;
  Config.DiskDir = Dir;
  ResultCache Restarted(Config);
  std::string Error;
  ASSERT_TRUE(Restarted.open(Error)) << Error;

  ResultCache::Lookup L = Restarted.getOrCompute(K, nullptr, [] {
    ADD_FAILURE() << "warm entry must not be recomputed";
    return SingleFlight::Result::error("unreachable");
  });
  ASSERT_TRUE(L.ok());
  EXPECT_EQ(L.Src, ResultCache::Source::Disk);
  EXPECT_TRUE(L.cached());
  EXPECT_EQ(L.R.Entry.Ir, "warm");

  // Promoted: the next lookup is a memory hit.
  ResultCache::Lookup Again = Restarted.getOrCompute(K, nullptr, [] {
    return SingleFlight::Result::error("unreachable");
  });
  EXPECT_EQ(Again.Src, ResultCache::Source::Memory);
  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Service-level acceptance
//===----------------------------------------------------------------------===//

const char *ServiceProgram = "block entry\n"
                             "  goto top\n"
                             "block top\n"
                             "  if p then compute else skip\n"
                             "block compute\n"
                             "  h = a + b\n  x = h\n  goto join\n"
                             "block skip\n"
                             "  t = k\n  goto join\n"
                             "block join\n"
                             "  y = a + b\n  exit\n";

std::string servicePayload(int64_t Id, const std::string &Ir,
                           const std::string &Pipeline = "lcse,lcm",
                           bool Check = false, int64_t SleepMs = 0) {
  server::Request R;
  R.Id = json::Value::number(Id);
  R.Ir = Ir;
  R.Pipeline = Pipeline;
  R.Check = Check;
  R.TestSleepMs = SleepMs;
  return server::requestToJson(R).dump(0);
}

std::string stringField(const json::Value &V, const char *Key) {
  const json::Value *F = V.find(Key);
  return F && F->isString() ? F->asString() : std::string();
}

bool boolField(const json::Value &V, const char *Key) {
  const json::Value *F = V.find(Key);
  return F && F->isBool() && F->asBool();
}

server::Service makeCachedService(bool EnableTestOptions = false) {
  server::ServiceConfig Config;
  Config.EnableTestOptions = EnableTestOptions;
  Config.Cache = std::make_shared<ResultCache>(ResultCacheConfig());
  std::string Error;
  EXPECT_TRUE(Config.Cache->open(Error)) << Error;
  return server::Service(Config);
}

TEST(ServiceCache, SecondIdenticalRequestHitsByteIdentically) {
  server::Service S = makeCachedService();

  json::Value First = S.handle(servicePayload(1, ServiceProgram));
  ASSERT_EQ(stringField(First, "status"), "ok") << First.dump();
  EXPECT_FALSE(boolField(First, "cached"));
  ASSERT_EQ(stringField(First, "cache_key").size(), 32u);

  json::Value Second = S.handle(servicePayload(2, ServiceProgram));
  ASSERT_EQ(stringField(Second, "status"), "ok") << Second.dump();
  EXPECT_TRUE(boolField(Second, "cached"));
  EXPECT_EQ(stringField(Second, "cache_key"), stringField(First, "cache_key"));
  EXPECT_EQ(stringField(Second, "ir"), stringField(First, "ir"))
      << "a hit must be byte-identical to the computed response";
}

TEST(ServiceCache, FormattingVariantsShareOneEntry) {
  server::Service S = makeCachedService();

  // Same program, different whitespace; same pass list, different spacing.
  std::string Spaced(ServiceProgram);
  Spaced += "\n\n";
  json::Value First = S.handle(servicePayload(1, ServiceProgram, "lcse,lcm"));
  json::Value Second = S.handle(servicePayload(2, Spaced, "lcse, lcm"));
  ASSERT_EQ(stringField(Second, "status"), "ok") << Second.dump();
  EXPECT_TRUE(boolField(Second, "cached"))
      << "canonicalization should fold formatting variants onto one key";
  EXPECT_EQ(stringField(Second, "cache_key"), stringField(First, "cache_key"));
}

TEST(ServiceCache, DifferentConfigurationsNeverShareEntries) {
  server::Service S = makeCachedService();

  json::Value Plain = S.handle(servicePayload(1, ServiceProgram, "lcse,lcm"));
  json::Value OtherPipeline =
      S.handle(servicePayload(2, ServiceProgram, "lcse,bcm"));
  json::Value Checked = S.handle(
      servicePayload(3, ServiceProgram, "lcse,lcm", /*Check=*/true));

  EXPECT_FALSE(boolField(OtherPipeline, "cached"))
      << "a different pass list must not hit the plain entry";
  EXPECT_FALSE(boolField(Checked, "cached"))
      << "a checked request must not hit the unchecked entry";
  EXPECT_NE(stringField(OtherPipeline, "cache_key"),
            stringField(Plain, "cache_key"));
  EXPECT_NE(stringField(Checked, "cache_key"),
            stringField(Plain, "cache_key"));

  // And each distinct configuration caches for its own repeats.
  EXPECT_TRUE(boolField(
      S.handle(servicePayload(4, ServiceProgram, "lcse,bcm")), "cached"));
}

TEST(ServiceCache, ConcurrentIdenticalRequestsRunPipelineOnce) {
  server::Service S = makeCachedService(/*EnableTestOptions=*/true);

  const uint64_t RunsBefore = Stats::get("server.pipeline_runs");
  constexpr int Threads = 6;
  // The sleep sits inside the cached computation, so the leader holds the
  // single-flight open while every sibling arrives.
  const std::string Payload = servicePayload(
      7, ServiceProgram, "lcse,lcm", /*Check=*/false, /*SleepMs=*/200);

  std::vector<json::Value> Responses(Threads);
  std::vector<std::thread> Pool;
  for (int I = 0; I != Threads; ++I)
    Pool.emplace_back([&, I] { Responses[I] = S.handle(Payload); });
  for (std::thread &T : Pool)
    T.join();

  EXPECT_EQ(Stats::get("server.pipeline_runs") - RunsBefore, 1u)
      << "K identical concurrent requests must run the pipeline exactly once";

  int Computed = 0;
  const std::string Ir = stringField(Responses[0], "ir");
  for (const json::Value &R : Responses) {
    ASSERT_EQ(stringField(R, "status"), "ok") << R.dump();
    EXPECT_EQ(stringField(R, "ir"), Ir);
    Computed += !boolField(R, "cached");
  }
  EXPECT_EQ(Computed, 1) << "exactly the leader reports cached=false";
}

TEST(ServiceCache, HitIsServedEvenUnderExpiredDeadline) {
  server::Service S = makeCachedService();
  ASSERT_EQ(stringField(S.handle(servicePayload(1, ServiceProgram)), "status"),
            "ok");

  // An already-expired deadline: the pipeline could never run, but the
  // cache hit costs nothing and is served.
  server::Request R;
  R.Id = json::Value::number(int64_t(2));
  R.Ir = ServiceProgram;
  R.DeadlineMs = 0;
  json::Value Response = S.handle(server::requestToJson(R).dump(0));
  EXPECT_EQ(stringField(Response, "status"), "ok") << Response.dump();
  EXPECT_TRUE(boolField(Response, "cached"));
}

TEST(ServiceCache, CacheOffOmitsCacheFields) {
  server::Service S{server::ServiceConfig{}};
  json::Value Response = S.handle(servicePayload(1, ServiceProgram));
  ASSERT_EQ(stringField(Response, "status"), "ok");
  EXPECT_EQ(Response.find("cached"), nullptr);
  EXPECT_EQ(Response.find("cache_key"), nullptr);
}

} // namespace
