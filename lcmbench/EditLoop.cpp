//===- lcmbench/EditLoop.cpp - Chained one-block deltas to one shard -----===//
//
// One connection straight to lcm_serve.  Each round optimizes a large
// multi-function module once (the same module whatever the seed), then
// sends a seeded chain of one-block protocol-v4 delta requests, each
// naming the previous response's cache_key as its base_key, as an editor
// would.  Rounds rename the
// module's functions, so every round's edits are new to the caches; the
// optimizer never reads a function's name, so one chain of from-scratch
// references serves every round.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <deque>

#include "Checks.h"
#include "Common.h"
#include "Procs.h"
#include "ir/Parser.h"
#include "server/Client.h"
#include "server/Protocol.h"

using namespace lcm;
using lcm::json::Value;

namespace lcmbench {

namespace {

constexpr unsigned ModuleFunctions = 64;
constexpr unsigned EditsPerRound = 300;
constexpr unsigned WarmupEdits = 40;
constexpr Strategy EditStrategy = Strategy::Lcm;

struct Edit {
  unsigned Fn = 0;
  BlockEdit E;
};

std::string fnName(unsigned Round, const Program &P) {
  return "r" + std::to_string(Round) + "_" + P.Name;
}

} // namespace

void runEditLoop(const RunOptions &O, RunReport &R) {
  // Small and medium functions plus two Wide kernels, all from fixed
  // seeds: edits to the kernels are the slowest, so the latency tail is
  // made of real work.
  std::vector<Program> Progs = drawServing(0xed17ULL, ModuleFunctions, "m");
  for (Program &P : fixedHeavy(Kind::Wide, 2, "mw"))
    Progs.push_back(std::move(P));
  const Pipelines Ps;

  // The chain of edits and, for every state of every edited function, its
  // from-scratch cacheless reference optimization.  Body = the optimized
  // text after its `func` line.
  std::vector<std::string> Texts;
  std::vector<std::string> Bodies(Progs.size());
  struct Optimized {
    Function In, Out;
    uint64_t Evals = 0;
  };
  std::deque<Optimized> States; // every function state the chain optimizes
  std::vector<EditSample> Samples;
  auto Reference = [&](unsigned Fi, const std::string &Text) -> bool {
    Program P = Progs[Fi];
    P.Text = Text;
    std::string Ir, Error;
    Function Out;
    if (!compileReference(Ps, P, EditStrategy, Ir, &Out, Error)) {
      R.wrong("reference compile failed: " + Error);
      return false;
    }
    OracleVerdict V = compareUnderOracle(Text, Ir);
    if (!V.Same)
      R.wrong(P.Name + ": " + V.Why);
    if (V.MoreEvalRuns)
      R.wrong(P.Name + ": evaluates more expressions than its input");
    Bodies[Fi] = Ir.substr(Ir.find('\n'));
    States.push_back({parseFunction(Text).Fn, std::move(Out), V.EvalsOut});
    return true;
  };
  for (unsigned I = 0; I != Progs.size(); ++I) {
    Texts.push_back(Progs[I].Text);
    if (!Reference(I, Texts[I]))
      return;
  }
  std::vector<std::string> InitialBodies = Bodies;
  std::vector<Edit> Chain;
  // Per edit: the edited function's optimized body.
  std::vector<std::string> ChainBodies;
  // Every function is edited equally often, in a seeded order.
  std::vector<unsigned> Order(Progs.size());
  for (unsigned I = 0; I != Order.size(); ++I)
    Order[I] = I;
  for (size_t I = Order.size() - 1; I > 0; --I)
    std::swap(Order[I], Order[size_t((O.Seed * 2654435761ULL + I * 40503ULL) %
                                     (I + 1))]);
  for (unsigned I = 0; Chain.size() != EditsPerRound; ++I) {
    Edit E;
    E.Fn = Order[I % Order.size()];
    if (!makeBlockEdit(Texts[E.Fn], O.Seed * 1000003ULL + I,
                       "zq" + std::to_string(Chain.size()), E.E)) {
      if (I > 4 * EditsPerRound) {
        R.wrong("could not generate the edit chain");
        return;
      }
      continue;
    }
    EditSample S{Texts[E.Fn], Texts[E.Fn], E.E.Label};
    applyBlockEdit(Texts[E.Fn], E.E);
    S.After = Texts[E.Fn];
    if (Samples.size() < 120)
      Samples.push_back(std::move(S));
    if (!Reference(E.Fn, Texts[E.Fn]))
      return;
    Chain.push_back(E);
    ChainBodies.push_back(Bodies[E.Fn]);
  }
  // Quality over the initial module's functions, which do not depend on
  // the seed (the edits do; they are checked, not counted).
  std::vector<QualitySample> Quality;
  for (size_t I = 0; I != Progs.size(); ++I)
    Quality.push_back({&States[I].In, &States[I].Out, States[I].Evals});
  QualityCounts Q;
  std::string QErr;
  if (!measureQuality(Quality, Q, QErr))
    R.wrong(QErr);

  // One round: the initial module, then the chain.  Returns false on a
  // transport error.
  server::Client Conn;
  std::string Err;
  uint64_t Attempted = 0, Failed = 0, BaseMiss = 0, Fallbacks = 0,
           Mismatches = 0, Reoptimized = 0, Edits = 0;
  OpLog Log;
  Tracer T;
  auto Expected = [&](unsigned Round, const std::vector<std::string> &B) {
    std::string M;
    for (size_t I = 0; I != Progs.size(); ++I) {
      M += "func " + fnName(Round, Progs[I]);
      M += B[I];
    }
    return M;
  };
  auto RunRound = [&](unsigned Round, unsigned Limit) -> bool {
    std::vector<std::string> Cur = InitialBodies;
    std::string ModuleText;
    std::vector<std::string> RoundTexts;
    for (const Program &P : Progs) {
      RoundTexts.push_back(renameFunction(P.Text, fnName(Round, P)));
      ModuleText += RoundTexts.back();
    }
    server::Request Init;
    Init.Ir = ModuleText;
    Init.Pipeline = strategyPipeline(EditStrategy);
    Value Resp;
    T.beginOp(Attempted);
    Clock::time_point B = Clock::now();
    {
      SpanScope Sp(T, "client.module");
      if (!Conn.call(Init, Resp, Err))
        return false;
    }
    Log.record(B, Clock::now());
    ++Attempted;
    std::string Why = checkOkResponse(Resp, Expected(Round, Cur), "", false,
                                      false);
    const std::string *Key = findString(Resp, "cache_key");
    if (!Why.empty() || !Key) {
      ++Failed;
      R.wrong("module request: " + (Why.empty() ? "no cache_key" : Why));
      return true;
    }
    std::string Base = *Key;
    for (unsigned I = 0; I != Limit; ++I) {
      const Edit &E = Chain[I];
      server::Request D;
      D.Pipeline = Init.Pipeline;
      D.BaseKey = Base;
      D.Patch.push_back({server::PatchOp::Kind::ReplaceBlock, E.E.Label, "",
                         fnName(Round, Progs[E.Fn]), E.E.NewBlock});
      const std::string Payload = server::requestToJson(D).dump(0);
      T.beginOp(Attempted);
      B = Clock::now();
      {
        SpanScope Sp(T, "client.edit");
        if (!Conn.sendPayload(Payload, Err) || !Conn.recvResponse(Resp, Err))
          return false;
      }
      Log.record(B, Clock::now());
      ++Attempted;
      ++Edits;
      Cur[E.Fn] = ChainBodies[I];
      const std::string *St = findString(Resp, "status");
      if (St && *St == "base_miss")
        ++BaseMiss;
      const std::string *Delta = findString(Resp, "delta");
      if (St && *St == "ok" && (!Delta || *Delta != "applied"))
        ++Fallbacks;
      Why = checkOkResponse(Resp, Expected(Round, Cur), "", false, false);
      Key = findString(Resp, "cache_key");
      if (!St || *St != "ok" || !Key) {
        ++Failed;
        return true; // the chain cannot continue without a base
      }
      if (!Why.empty()) {
        ++Mismatches;
        R.wrong("edit " + std::to_string(I) + " of round " +
                std::to_string(Round) + ": " + Why);
      }
      Reoptimized += functionsReoptimized(Resp);
      Base = *Key;
    }
    return true;
  };

  // Each shard: start, connect, warm up with a round's module and its first
  // edits (its set-up time), then a timed phase of whole rounds.  An
  // untraced run measures ServingProcesses fresh shards in turn and pools
  // their samples; a traced run measures one, first untraced, then traced.
  const unsigned Shards = O.Trace ? 1 : ServingProcesses;
  const double Share = O.Trace ? O.Seconds / 2 : O.Seconds / Shards;
  ProcessFigures Figs;
  std::vector<double> Rates, TracedRates;
  double RetainedHits = 0;
  uint64_t MainEdits = 0, MainReopt = 0, TotalAttempted = 0;
  uint64_t TotalFailed = 0, TotalEdits = 0, TotalBaseMiss = 0,
           TotalFallbacks = 0, TotalMismatches = 0;
  unsigned Round = 0;
  auto Phase = [&](double Seconds, bool Traced, std::vector<double> &Out) {
    T.setEnabled(Traced);
    const Clock::time_point P0 = Clock::now();
    Log = OpLog();
    Log.start(P0, 0.5);
    do {
      if (!RunRound(++Round, EditsPerRound)) {
        R.wrong("transport error: " + Err);
        break;
      }
    } while (secondsBetween(P0, Clock::now()) < Seconds ||
             Log.ops() < MinSamples);
    T.setEnabled(false);
    const Clock::time_point End = Clock::now();
    const std::vector<double> Rates = Log.windowRates(End);
    Out.insert(Out.end(), Rates.begin(), Rates.end());
  };
  for (unsigned K = 0; K != Shards; ++K) {
    ServerProcess Shard;
    Attempted = Failed = Mismatches = 0;
    const Clock::time_point S0 = Clock::now();
    if (!Shard.start({O.BinDir + "/lcm_serve", "--tcp=0", "--metrics-port=0",
                      "--workers=1", "--validators=1"},
                     10000, Err) ||
        !Conn.connectTcp(Shard.port(), Err, 2000) ||
        !RunRound(++Round, WarmupEdits)) {
      R.wrong("set-up: " + Err);
      return;
    }
    const double Setup = secondsBetween(S0, Clock::now());
    if (Failed || Mismatches)
      R.wrong("warm-up round failed");
    if (K == 0) {
      server::Request Info;
      Info.Ir = Progs[0].Text;
      Info.ServerInfo = true;
      Value Resp;
      if (Conn.call(Info, Resp, Err))
        if (const Value *S = Resp.find("server"))
          if (const Value *Kb = S->find("kernel_backend"))
            R.Stamp.set("server_kernel_backend", *Kb);
    }
    Attempted = Failed = BaseMiss = Fallbacks = Mismatches = Reoptimized =
        Edits = 0;

    const auto St0 = statsCounters(scrapeMetrics(Shard.metricsPort()));
    const double Cpu0 = processCpuSeconds(Shard.pid());
    std::vector<double> ShardRates;
    Phase(Share, false, ShardRates);
    const double Cpu = processCpuSeconds(Shard.pid()) - Cpu0;
    Rates.insert(Rates.end(), ShardRates.begin(), ShardRates.end());
    const auto St1 = statsCounters(scrapeMetrics(Shard.metricsPort()));
    RetainedHits += counterDelta(St1, St0, "cache.retained.hits");
    Figs.add(Log.latencies(), ShardRates, Cpu, processPeakRssMiB(Shard.pid()),
             Setup);
    MainEdits += Edits;
    MainReopt += Reoptimized;
    if (O.Trace)
      Phase(Share, true, TracedRates);
    Conn.close();
    Shard.stop();
    TotalAttempted += Attempted;
    TotalFailed += Failed;
    TotalEdits += Edits;
    TotalBaseMiss += BaseMiss;
    TotalFallbacks += Fallbacks;
    TotalMismatches += Mismatches;
  }
  R.Stamp.set("connections", Value::number(uint64_t(1)));
  R.Stamp.set("shard_workers", Value::number(uint64_t(1)));
  R.Stamp.set("shard_validators", Value::number(uint64_t(1)));

  R.Attempted = TotalAttempted;
  R.Failed = TotalFailed;
  Value A = Value::object();
  A.set("attempted", Value::number(TotalAttempted));
  A.set("edits", Value::number(TotalEdits));
  A.set("rounds", Value::number(uint64_t(Round)));
  A.set("base_miss", Value::number(TotalBaseMiss));
  A.set("fallbacks", Value::number(TotalFallbacks));
  A.set("delta_full_mismatches", Value::number(TotalMismatches));
  A.set("failed", Value::number(TotalFailed));
  R.Accounting.set("edits", std::move(A));
  R.Accounting.set("shards", Value::number(uint64_t(Shards)));
  R.Accounting.set("module_functions",
                   Value::number(uint64_t(Progs.size())));
  if (TotalBaseMiss || TotalFallbacks)
    R.wrong("deltas fell back to full text or missed their base");

  if (!O.Trace) {
    addTimingMetrics(R, Figs);
    addQualityMetrics(R, Q);
    return;
  }
  const double Rate = median(Rates);
  R.add("trace.overhead_pct", "%",
        Rate > 0 ? (Rate - median(TracedRates)) / Rate * 100.0 : 0.0);
  SocketLayerFigures Fig;
  Fig.HaveEdits = true;
  Fig.RetainedHitsPerEdit = MainEdits ? RetainedHits / double(MainEdits) : 0;
  Fig.FnsReoptimizedPerEdit =
      MainEdits ? double(MainReopt) / double(MainEdits) : 0;
  runLayerProbe(O, Progs, Samples, Fig, T, R);
}

} // namespace lcmbench
