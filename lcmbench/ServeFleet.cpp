//===- lcmbench/ServeFleet.cpp - Closed loop through the router ----------===//
//
// A few connections from one process drive lcm_router (response cache on)
// in front of two lcm_serve shards (result cache with a byte budget below
// the working set; the validator pool on one of them).  The stream is a
// seeded mix of small and medium programs: a fixed share repeats a hot
// set, a fixed share asks `validate: true`, and the three strategies are
// mixed evenly.  The hot set and the heavy programs do not depend on the
// seed; the cold programs and the stream's order do.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "Checks.h"
#include "Common.h"
#include "Procs.h"
#include "ir/Parser.h"
#include "server/Client.h"
#include "server/Protocol.h"
#include "support/Rng.h"

using namespace lcm;
using lcm::json::Value;

namespace lcmbench {

namespace {

constexpr unsigned HotPrograms = 48;
constexpr unsigned ColdPrograms = 480;
constexpr unsigned HeavyPrograms = 8;
constexpr unsigned StreamSlots = 2400;  ///< One round.
constexpr unsigned HotPercent = 40;
constexpr unsigned HeavyPercent = 2;
constexpr unsigned ValidatePercent = 20;
constexpr size_t ShardCacheBytes = 96u << 10;
constexpr size_t RouterCacheBytes = 64u << 10;

struct Distinct {
  const Program *P = nullptr;
  Strategy S = Strategy::Lcm;
  std::string Reference;
  /// Payloads without and with `validate: true`.
  std::string Payload[2];
};

struct Slot {
  uint32_t Request;
  bool Validate;
};

/// A slice of the stream: exactly Share percent of N slots, seeded order.
std::vector<uint8_t> exactShare(unsigned N, unsigned Percent, Rng &R) {
  std::vector<uint8_t> V(N, 0);
  std::fill(V.begin(), V.begin() + N * Percent / 100, 1);
  for (size_t I = N - 1; I > 0; --I)
    std::swap(V[I], V[size_t(R.below(I + 1))]);
  return V;
}

/// Server threads: the router's forwarding workers plus each shard's
/// workers and validators sum to 4, at most nproc on the measuring VM.
constexpr unsigned RouterWorkers = 1;
constexpr unsigned ShardWorkers = 1;
constexpr unsigned ShardValidators[2] = {1, 0};

struct Fleet {
  ServerProcess Shards[2];
  ServerProcess Router;
  std::vector<server::Client> Conns;

  bool start(const RunOptions &O, unsigned Connections, std::string &Err) {
    for (unsigned I = 0; I != 2; ++I)
      if (!Shards[I].start(
              {O.BinDir + "/lcm_serve", "--tcp=0", "--metrics-port=0",
               "--workers=" + std::to_string(ShardWorkers),
               "--validators=" + std::to_string(ShardValidators[I]),
               "--cache-bytes=" + std::to_string(ShardCacheBytes)},
              10000, Err))
        return false;
    if (!Router.start({O.BinDir + "/lcm_router", "--tcp=0",
                       "--metrics-port=0",
                       "--shard=" + std::to_string(Shards[0].port()),
                       "--shard=" + std::to_string(Shards[1].port()),
                       "--workers=" + std::to_string(RouterWorkers),
                       "--cache-bytes=" + std::to_string(RouterCacheBytes)},
                      10000, Err))
      return false;
    Conns.clear();
    Conns.resize(Connections);
    for (server::Client &C : Conns)
      if (!C.connectTcp(Router.port(), Err, 2000))
        return false;
    return true;
  }
  void stop() {
    for (server::Client &C : Conns)
      C.close();
    Router.stop();
    for (ServerProcess &S : Shards)
      S.stop();
  }
  std::vector<pid_t> pids() const {
    return {Router.pid(), Shards[0].pid(), Shards[1].pid()};
  }
};

/// Outcome bookkeeping shared by the connection threads.
struct Tally {
  std::mutex M;
  std::map<std::string, uint64_t> ByStatus;
  uint64_t Failed = 0;
  std::vector<std::string> Wrong;
};

/// Sends one slot and checks the answer.  Returns false on transport error.
bool sendSlot(server::Client &C, const Distinct &D, bool Validate,
              Tally &Out, std::string &Err) {
  Value Resp;
  if (!C.sendPayload(D.Payload[Validate], Err) || !C.recvResponse(Resp, Err))
    return false;
  const Value *St = Resp.find("status");
  const std::string Status =
      St && St->isString() ? St->asString() : std::string("?");
  std::string Why;
  if (Status == "ok")
    Why = checkOkResponse(Resp, D.Reference, D.P->Text, Validate, false);
  std::lock_guard<std::mutex> L(Out.M);
  ++Out.ByStatus[Status];
  if (Status != "ok")
    ++Out.Failed;
  else if (!Why.empty() && Out.Wrong.size() < 4)
    Out.Wrong.push_back(D.P->Name + " [" + strategyName(D.S) + "]: " + Why);
  return true;
}

} // namespace

void runServeFleet(const RunOptions &O, RunReport &R) {
  const unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned Connections = std::min(2u, Hw);

  // Inputs: hot, cold and heavy programs, each bound to one strategy.
  // Hot programs first (from a fixed seed, with synthesized profiles), then
  // cold (from the run's seed, with measured profiles, like
  // compile_batch's seeded programs), then the seed-independent heavy ones
  // (measured profiles).
  std::vector<Program> Progs = drawServing(0x4075eed, HotPrograms, "h", true);
  for (Program &P : drawServing(O.Seed, ColdPrograms, "s"))
    Progs.push_back(std::move(P));
  for (Program &P : fixedHeavy(Kind::Structured, HeavyPrograms, "sh"))
    Progs.push_back(std::move(P));
  auto SeedIndependent = [](size_t I) {
    return I < HotPrograms || I >= HotPrograms + ColdPrograms;
  };
  const Pipelines Ps;
  std::vector<Distinct> Ds(Progs.size());
  std::vector<QualitySample> Quality;
  std::vector<Function> Ins(Progs.size()), Outs(Progs.size());
  std::vector<uint64_t> Evals(Progs.size());
  size_t WorkingSetBytes = 0;
  for (size_t I = 0; I != Progs.size(); ++I) {
    Distinct &D = Ds[I];
    D.P = &Progs[I];
    D.S = Strategy(I % NumStrategies);
    std::string Error;
    if (!compileReference(Ps, Progs[I], D.S, D.Reference, &Outs[I], Error)) {
      R.wrong("reference compile failed: " + Error);
      return;
    }
    Ins[I] = parseFunction(Progs[I].Text).Fn;
    OracleVerdict V = compareUnderOracle(Progs[I].Text, D.Reference);
    if (!V.Same)
      R.wrong(Progs[I].Name + ": " + V.Why);
    if (D.S != Strategy::SpecPre && V.MoreEvalRuns)
      R.wrong(Progs[I].Name + ": evaluates more expressions than its input");
    Evals[I] = V.EvalsOut;
    WorkingSetBytes += D.Reference.size();
    for (int Validate = 0; Validate != 2; ++Validate) {
      server::Request Q;
      Q.Id = Value::number(uint64_t(I));
      Q.Ir = Progs[I].Text;
      Q.Pipeline = strategyPipeline(D.S);
      Q.Validate = Validate;
      if (D.S == Strategy::SpecPre) {
        Q.Profile = specpre::profileToJson(Progs[I].Profile);
        Q.ProfileMode = Progs[I].ProfileMode;
      }
      D.Payload[Validate] = server::requestToJson(Q).dump(0);
    }
  }
  // Quality over the seed-independent programs: the hot set and the heavy
  // ones.
  for (size_t I = 0; I != Progs.size(); ++I)
    if (SeedIndependent(I))
      Quality.push_back({&Ins[I], &Outs[I], Evals[I]});
  QualityCounts Q;
  std::string QErr;
  if (!measureQuality(Quality, Q, QErr))
    R.wrong(QErr);

  // One round of the stream: exact hot, heavy and validate shares, seeded
  // order; cold and heavy slots walk their programs in order, so each
  // recurs at a fixed reuse distance.
  Rng Rg(O.Seed * 0x2545f4914f6cdd1dULL + 17);
  const std::vector<uint8_t> Hot = exactShare(StreamSlots, HotPercent, Rg);
  const std::vector<uint8_t> Heavy =
      exactShare(StreamSlots, HeavyPercent, Rg);
  const std::vector<uint8_t> Val =
      exactShare(StreamSlots, ValidatePercent, Rg);
  std::vector<Slot> Stream(StreamSlots);
  // Hot slots cycle through a seeded permutation of the hot set, so every
  // hot program gets the same share.
  std::vector<uint32_t> HotOrder(HotPrograms);
  for (uint32_t I = 0; I != HotPrograms; ++I)
    HotOrder[I] = I;
  for (size_t I = HotPrograms - 1; I > 0; --I)
    std::swap(HotOrder[I], HotOrder[size_t(Rg.below(I + 1))]);
  unsigned NextCold = 0, NextHot = 0, NextHeavy = 0;
  for (unsigned I = 0; I != StreamSlots; ++I)
    Stream[I] = {Heavy[I] ? uint32_t(HotPrograms + ColdPrograms +
                                     NextHeavy++ % HeavyPrograms)
                 : Hot[I] ? HotOrder[NextHot++ % HotPrograms]
                          : uint32_t(HotPrograms + NextCold++ % ColdPrograms),
                 Val[I] != 0};

  // Each fleet: start, connect, warm up by sending every hot and heavy
  // program once (its set-up time; the same requests whatever the seed),
  // then a timed phase.  An untraced run measures ServingProcesses fresh
  // fleets in turn and pools their samples; a traced run measures one
  // fleet, first untraced, then with client-side spans.
  const unsigned Fleets = O.Trace ? 1 : ServingProcesses;
  const double Share = O.Trace ? O.Seconds / 2 : O.Seconds / Fleets;
  Tally Outcome, Warm;
  ProcessFigures Figs;
  std::vector<double> Rates, TracedRates;
  std::vector<Tracer> Tracers(Connections);
  SocketLayerFigures Fig;
  Fig.HaveFleetCache = true;
  double Hits = 0, Misses = 0, ShardReqs = 0, Evictions = 0, RHits = 0,
         RMiss = 0;
  std::string Err;
  std::atomic<bool> TransportError{false};
  for (unsigned K = 0; K != Fleets; ++K) {
    Fleet F;
    const Clock::time_point S0 = Clock::now();
    if (!F.start(O, Connections, Err)) {
      R.wrong("fleet start: " + Err);
      F.stop();
      return;
    }
    for (size_t I = 0; I != Ds.size(); ++I)
      if (SeedIndependent(I) &&
          !sendSlot(F.Conns[0], Ds[I], false, Warm, Err)) {
        R.wrong("warm-up: " + Err);
        F.stop();
        return;
      }
    const double Setup = secondsBetween(S0, Clock::now());
    if (K == 0) {
      server::Request Info;
      Info.Ir = Progs[0].Text;
      Info.ServerInfo = true;
      Value Resp;
      if (F.Conns[0].call(Info, Resp, Err))
        if (const Value *S = Resp.find("server"))
          if (const Value *Kb = S->find("kernel_backend"))
            R.Stamp.set("server_kernel_backend", *Kb);
    }

    // Connection c sends slots c, c+C, ... of the stream and always
    // finishes the round it started.
    const std::vector<pid_t> Pids = F.pids();
    std::vector<double> Cpu0;
    for (pid_t P : Pids)
      Cpu0.push_back(processCpuSeconds(P));
    const auto Sh0 = statsCounters(scrapeMetrics(F.Shards[0].metricsPort()));
    const auto Sh1 = statsCounters(scrapeMetrics(F.Shards[1].metricsPort()));
    const auto Ro0 = statsCounters(scrapeMetrics(F.Router.metricsPort()));
    auto Phase = [&](double Seconds, bool Traced, std::vector<double> &Out) {
      std::vector<OpLog> Logs(Connections);
      const Clock::time_point P0 = Clock::now();
      std::vector<std::thread> Th;
      for (unsigned C = 0; C != Connections; ++C) {
        Logs[C].start(P0, 0.5);
        Th.emplace_back([&, C] {
          Tracer &T = Tracers[C];
          T.setEnabled(Traced && C == 0);
          std::string E;
          uint64_t Op = 0;
          do {
            for (unsigned I = C; I < StreamSlots; I += Connections) {
              const Slot &S = Stream[I];
              T.beginOp(Op++);
              SpanScope Span(T, "client.request");
              const Clock::time_point B = Clock::now();
              if (!sendSlot(F.Conns[C], Ds[S.Request], S.Validate, Outcome,
                            E)) {
                TransportError = true;
                return;
              }
              Logs[C].record(B, Clock::now());
            }
          } while (secondsBetween(P0, Clock::now()) < Seconds ||
                   Logs[C].ops() < MinSamples / Connections);
          T.setEnabled(false);
        });
      }
      for (std::thread &T : Th)
        T.join();
      OpLog All;
      All.start(P0, 0.5);
      for (OpLog &L : Logs)
        All.merge(L);
      const Clock::time_point End = Clock::now();
      const std::vector<double> Rates = All.windowRates(End);
      Out.insert(Out.end(), Rates.begin(), Rates.end());
      return All;
    };
    std::vector<double> FleetRates;
    OpLog Main = Phase(Share, false, FleetRates);
    double Cpu = 0, RssSum = 0;
    for (size_t I = 0; I != Pids.size(); ++I) {
      Cpu += processCpuSeconds(Pids[I]) - Cpu0[I];
      RssSum += processPeakRssMiB(Pids[I]);
    }
    R.Attempted += Main.ops();
    Rates.insert(Rates.end(), FleetRates.begin(), FleetRates.end());
    Figs.add(std::move(Main.latencies()), FleetRates, Cpu, RssSum, Setup);
    if (O.Trace)
      R.Attempted += Phase(Share, true, TracedRates).ops();

    // The servers' own counters over the timed phase(s).
    const auto Sh0b = statsCounters(scrapeMetrics(F.Shards[0].metricsPort()));
    const auto Sh1b = statsCounters(scrapeMetrics(F.Shards[1].metricsPort()));
    const auto Ro0b = statsCounters(scrapeMetrics(F.Router.metricsPort()));
    const auto D = counterDelta;
    Hits += D(Sh0b, Sh0, "cache.mem.hits") + D(Sh1b, Sh1, "cache.mem.hits");
    Misses +=
        D(Sh0b, Sh0, "cache.mem.misses") + D(Sh1b, Sh1, "cache.mem.misses");
    ShardReqs +=
        D(Sh0b, Sh0, "server.requests") + D(Sh1b, Sh1, "server.requests");
    Evictions += D(Sh0b, Sh0, "cache.mem.evictions") +
                 D(Sh1b, Sh1, "cache.mem.evictions");
    RHits += D(Ro0b, Ro0, "router.cache.hits");
    RMiss += D(Ro0b, Ro0, "router.cache.misses");
    Fig.Retries += D(Ro0b, Ro0, "router.retries");
    Fig.Failovers += D(Ro0b, Ro0, "router.failovers");
    F.stop();
    if (TransportError) {
      R.wrong("transport error during the timed phase");
      return;
    }
  }
  Fig.HitRatio = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
  Fig.EvictionsPerKreq = ShardReqs > 0 ? Evictions * 1000.0 / ShardReqs : 0;
  Fig.RouterHitRatio = RHits + RMiss > 0 ? RHits / (RHits + RMiss) : 0;

  R.Stamp.set("connections", Value::number(uint64_t(Connections)));
  R.Stamp.set("shard_workers", Value::number(uint64_t(ShardWorkers)));
  Value Validators = Value::array();
  for (unsigned V : ShardValidators)
    Validators.push(Value::number(uint64_t(V)));
  R.Stamp.set("shard_validators", std::move(Validators));
  R.Stamp.set("router_workers", Value::number(uint64_t(RouterWorkers)));
  for (const std::string &W : Outcome.Wrong)
    R.wrong(W);
  for (const std::string &W : Warm.Wrong)
    R.wrong(W);
  if (Warm.Failed)
    R.wrong("warm-up requests failed");
  R.Failed = Outcome.Failed;
  Value ByStatus = Value::object();
  for (const auto &[S, N] : Outcome.ByStatus)
    ByStatus.set(S, Value::number(N));
  Value Requests = Value::object();
  Requests.set("attempted", Value::number(R.Attempted));
  Requests.set("failed", Value::number(R.Failed));
  Requests.set("by_status", std::move(ByStatus));
  R.Accounting.set("requests", std::move(Requests));
  R.Accounting.set("fleets", Value::number(uint64_t(Fleets)));
  R.Accounting.set("working_set_bytes",
                   Value::number(uint64_t(WorkingSetBytes)));
  R.Accounting.set("shard_cache_bytes",
                   Value::number(uint64_t(ShardCacheBytes)));
  R.Accounting.set("router_cache_bytes",
                   Value::number(uint64_t(RouterCacheBytes)));

  if (!O.Trace) {
    addTimingMetrics(R, Figs);
    addQualityMetrics(R, Q);
    return;
  }
  const double Untraced = median(Rates), Traced = median(TracedRates);
  R.add("trace.overhead_pct", "%",
        Untraced > 0 ? (Untraced - Traced) / Untraced * 100.0 : 0.0);
  // Client-side spans of connection 0 first, then the in-process replay of
  // the same programs through the layer functions.
  runLayerProbe(O, Progs, {}, Fig, Tracers[0], R);
}

} // namespace lcmbench
