//===- lcmbench/Layers.cpp - The traced run's per-layer probe ------------===//
//
// Times calls into each module's public functions on the workload's own
// inputs, one span per call, and reads the servers' own /metrics.  Every
// traced run reports every per-layer metric; where a workload has no
// traffic of its own for a socket-side figure, a small probe fleet (one
// shard, one router) replays the workload's programs to obtain it.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <thread>

#include "Checks.h"
#include "Common.h"
#include "Procs.h"
#include "analysis/ExprDataflow.h"
#include "analysis/LocalProperties.h"
#include "cache/ContentHash.h"
#include "cache/ResultCache.h"
#include "core/Lcm.h"
#include "core/LocalCse.h"
#include "dataflow/Dataflow.h"
#include "graph/CriticalEdges.h"
#include "gvn/Gvn.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "server/Client.h"
#include "server/Protocol.h"
#include "server/Service.h"
#include "specpre/SpecPre.h"
#include "support/AllocHook.h"
#include "support/BitVector.h"
#include "support/Stats.h"

using namespace lcm;
using lcm::json::Value;

namespace lcmbench {

namespace {

/// Accumulates microseconds of calls timed from outside.
struct Acc {
  double Us = 0;
  double Count = 0;
  double perCall() const { return Count > 0 ? Us / Count : 0.0; }
};

template <typename F> double timeUs(Tracer &T, const char *Name, F &&Fn) {
  SpanScope S(T, Name);
  const Clock::time_point B = Clock::now();
  Fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - B).count();
}

std::vector<GenKill> availTransfers(const Function &Fn,
                                    const LocalProperties &LP) {
  std::vector<GenKill> X(Fn.numBlocks());
  for (BlockId B = 0; B != Fn.numBlocks(); ++B) {
    X[B].Gen = LP.comp(B);
    X[B].Kill = LP.transp(B);
    X[B].Kill.flipAll();
  }
  return X;
}

std::string requestPayload(const Program &P, Strategy S, bool Validate) {
  server::Request Q;
  Q.Ir = P.Text;
  Q.Pipeline = strategyPipeline(S);
  Q.Validate = Validate;
  if (S == Strategy::SpecPre) {
    Q.Profile = specpre::profileToJson(P.Profile);
    Q.ProfileMode = P.ProfileMode;
  }
  return server::requestToJson(Q).dump(0);
}

double ratio(double A, double B) { return B > 0 ? A / B : 0.0; }

double rttMedianUs(server::Client &C, const std::string &Payload,
                   unsigned Calls, std::string &Error) {
  std::vector<double> Us;
  for (unsigned I = 0; I != Calls; ++I) {
    Value Resp;
    const Clock::time_point B = Clock::now();
    if (!C.sendPayload(Payload, Error) || !C.recvResponse(Resp, Error))
      return -1;
    Us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - B).count());
  }
  return median(Us);
}

double statsBumpNs(unsigned Threads) {
  constexpr unsigned PerThread = 100000;
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<double> Ns(Threads, 0.0);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      Ready.fetch_add(1);
      while (!Go.load())
        ;
      const Clock::time_point B = Clock::now();
      for (unsigned I = 0; I != PerThread; ++I)
        Stats::bump("lcmbench.probe");
      Ns[T] = std::chrono::duration<double, std::nano>(Clock::now() - B)
                  .count() /
              PerThread;
    });
  while (Ready.load() != Threads)
    ;
  Go.store(true);
  for (std::thread &Th : Pool)
    Th.join();
  return median(Ns);
}

} // namespace

bool runLayerProbe(const RunOptions &O, const std::vector<Program> &All,
                   const std::vector<EditSample> &GivenEdits,
                   const SocketLayerFigures &Own, Tracer &T, RunReport &R) {
  T.setEnabled(true);
  // At most 120 programs, spread evenly over the workload's inputs.
  std::vector<const Program *> Progs;
  const size_t Step = All.size() > 120 ? All.size() / 120 + 1 : 1;
  for (size_t I = 0; I < All.size(); I += Step)
    Progs.push_back(&All[I]);
  const Pipelines Ps;
  uint64_t Op = 1u << 30; // probe op ids, apart from the timed loop's

  //===--- Optimizer layers, per function ---------------------------------===
  Acc Parse, Print, Split, LocalProps, Solve, Lcse, LcmT, GvnT, SpecT, Verify;
  double ParseKb = 0, PrintKb = 0, IrAllocs = 0, WordOps = 0, SimdOps = 0,
         Visits = 0, Insertions = 0, Deletions = 0, Adopted = 0, Fns = 0,
         LcmRuns = 0, SpecRuns = 0;
  ParserScratch Scratch;
  ParseResult Parsed;
  std::string Out, Ref, Error;
  LocalProperties LP;
  DataflowResult Av, Ant;
  PreRunResult Pre;
  for (const Program *P : Progs)
    for (unsigned SI = 0; SI != NumStrategies; ++SI) {
      const Strategy S = Strategy(SI);
      T.beginOp(++Op);
      SpanScope OpSpan(T, "op.compile_staged");
      uint64_t A0 = alloccount::allocations();
      Parse.Us += timeUs(T, "ir.parse", [&] {
        parseFunctionInto(P->Text, IRLimits(), Scratch, Parsed);
      });
      IrAllocs += double(alloccount::allocations() - A0);
      ParseKb += double(P->Text.size()) / 1024.0;
      if (!Parsed) {
        R.wrong("probe: " + P->Name + " does not parse");
        continue;
      }
      Function &F = Parsed.Fn;
      {
        Function Copy = F;
        Split.Us += timeUs(T, "graph.split",
                           [&] { splitAllCriticalEdges(Copy); });
      }
      Lcse.Us += timeUs(T, "core.lcse", [&] { runLocalCse(F); });
      if (S == Strategy::GvnLcm) {
        GvnT.Us += timeUs(T, "gvn.run", [&] { gvn::runGvn(F); });
        ++GvnT.Count;
        Lcse.Us += timeUs(T, "core.lcse", [&] { runLocalCse(F); });
      }
      LocalProps.Us +=
          timeUs(T, "analysis.local_props", [&] { LP.recompute(F); });
      const uint64_t W0 = BitVectorOps::snapshot();
      const uint64_t Simd0 = BitVectorOps::snapshotSimd();
      Solve.Us += timeUs(T, "dataflow.solve", [&] {
        computeAvailabilityInto(F, LP, SolverStrategy::Sparse, Av);
        computeAnticipabilityInto(F, LP, SolverStrategy::Sparse, Ant);
      });
      WordOps += double(BitVectorOps::snapshot() - W0);
      SimdOps += double(BitVectorOps::snapshotSimd() - Simd0);
      Visits += double(Av.Stats.NodeVisits + Ant.Stats.NodeVisits);
      if (S == Strategy::SpecPre) {
        specpre::SpecPreStats SS;
        SpecT.Us += timeUs(T, "specpre.run",
                           [&] { SS = specpre::runSpecPre(F, &P->Profile); });
        Adopted += double(SS.ExprsSpeculated);
        ++SpecRuns;
      } else {
        LcmT.Us += timeUs(T, "core.lcm", [&] {
          runPreInto(F, PreStrategy::Lazy, SolverStrategy::Sparse, Pre);
        });
        Insertions +=
            double(Pre.Report.EdgeInsertions + Pre.Report.NodeInsertions);
        Deletions += double(Pre.Report.Replacements);
        ++LcmRuns;
      }
      A0 = alloccount::allocations();
      Print.Us += timeUs(T, "ir.print", [&] {
        Out.clear();
        printFunction(F, Out);
      });
      IrAllocs += double(alloccount::allocations() - A0);
      PrintKb += double(Out.size()) / 1024.0;
      ++Fns;
      if (!compileReference(Ps, *P, S, Ref, nullptr, Error))
        R.wrong("probe: " + Error);
      else if (Out != Ref)
        R.wrong("probe: staged passes differ from the pipeline on " +
                P->Name + ": " + firstDifference(Out, Ref));

      // Pipeline time minus the summed pass time: the verifier and the
      // driver's own bookkeeping.
      ParseResult Again = parseFunction(P->Text);
      specpre::ProfileContext::Scope Scope(S == Strategy::SpecPre ? &P->Profile
                                                                  : nullptr);
      Pipeline::RunResult Run;
      {
        SpanScope Sp(T, "driver.pipeline");
        Run = Ps.P[SI].run(Again.Fn);
      }
      double PassSeconds = 0;
      for (const Pipeline::StepResult &St : Run.Steps)
        PassSeconds += St.Seconds;
      Verify.Us += (Run.Seconds - PassSeconds) * 1e6;
    }
  const double Nf = std::max(Fns, 1.0);
  R.add("ir.parse_us_per_kb", "us/KiB", ratio(Parse.Us, ParseKb));
  R.add("ir.print_us_per_kb", "us/KiB", ratio(Print.Us, PrintKb));
  R.add("ir.allocs_per_fn", "count", IrAllocs / Nf);
  R.add("graph.split_us_per_fn", "us", Split.Us / Nf);
  R.add("analysis.local_props_us_per_fn", "us", LocalProps.Us / Nf);
  R.add("dataflow.solve_us_per_fn", "us", Solve.Us / Nf);
  R.add("dataflow.word_ops_per_fn", "count", WordOps / Nf);
  R.add("dataflow.simd_word_ops_per_fn", "count", SimdOps / Nf);
  R.add("dataflow.node_visits_per_fn", "count", Visits / Nf);
  R.add("core.lcse_us_per_fn", "us", Lcse.Us / Nf);
  R.add("core.lcm_us_per_fn", "us", ratio(LcmT.Us, LcmRuns));
  R.add("gvn.us_per_fn", "us", ratio(GvnT.Us, GvnT.Count));
  R.add("specpre.us_per_fn", "us", ratio(SpecT.Us, SpecRuns));
  R.add("driver.verify_us_per_fn", "us", Verify.Us / Nf);
  R.add("core.insertions_per_fn", "count", ratio(Insertions, LcmRuns));
  R.add("core.deletions_per_fn", "count", ratio(Deletions, LcmRuns));
  R.add("specpre.adopted_per_fn", "count", ratio(Adopted, SpecRuns));

  //===--- Warm-start versus cold dataflow on one-block edits -------------===
  std::vector<EditSample> Edits(GivenEdits.begin(),
                                GivenEdits.begin() +
                                    std::min<size_t>(GivenEdits.size(), 120));
  if (Edits.empty())
    for (size_t I = 0; I != Progs.size(); ++I) {
      BlockEdit E;
      if (!makeBlockEdit(Progs[I]->Text, O.Seed + I, "zq_probe", E))
        continue;
      EditSample S{Progs[I]->Text, Progs[I]->Text, E.Label};
      applyBlockEdit(S.After, E);
      Edits.push_back(std::move(S));
    }
  std::vector<double> WarmUs, ColdUs;
  uint64_t WarmSkipped = 0;
  for (const EditSample &E : Edits) {
    ParseResult F0 = parseFunction(E.Before), F1 = parseFunction(E.After);
    if (!F0 || !F1 || F0.Fn.numBlocks() != F1.Fn.numBlocks() ||
        F0.Fn.exprs().size() != F1.Fn.exprs().size()) {
      ++WarmSkipped;
      continue;
    }
    BlockId Dirty = 0;
    for (const BasicBlock &B : F1.Fn.blocks())
      if (B.label() == E.Label)
        Dirty = B.id();
    LocalProperties LP0(F0.Fn), LP1(F1.Fn);
    const std::vector<GenKill> X0 = availTransfers(F0.Fn, LP0);
    const std::vector<GenKill> X1 = availTransfers(F1.Fn, LP1);
    const BitVector Boundary(LP1.numExprs());
    DataflowResult Prev, Cold, Warm;
    solveGenKillInto(F0.Fn, Direction::Forward, Meet::Intersection, X0,
                     Boundary, SolverStrategy::Sparse, Prev);
    T.beginOp(++Op);
    ColdUs.push_back(timeUs(T, "dataflow.cold", [&] {
      solveGenKillInto(F1.Fn, Direction::Forward, Meet::Intersection, X1,
                       Boundary, SolverStrategy::Sparse, Cold);
    }));
    WarmUs.push_back(timeUs(T, "dataflow.warm", [&] {
      solveGenKillSparseWarmInto(F1.Fn, Direction::Forward,
                                 Meet::Intersection, X1, Boundary, Prev,
                                 {Dirty}, Warm);
    }));
    for (BlockId B = 0; B != F1.Fn.numBlocks(); ++B)
      if (Warm.In[B] != Cold.In[B] || Warm.Out[B] != Cold.Out[B]) {
        R.wrong("probe: warm-start availability differs from a cold solve");
        break;
      }
  }
  R.add("dataflow.warm_us", "us", median(WarmUs));
  R.add("dataflow.cold_us", "us", median(ColdUs));
  R.Accounting.set("probe_warm_solves", Value::number(uint64_t(WarmUs.size())));
  R.Accounting.set("probe_warm_skipped", Value::number(WarmSkipped));

  //===--- Cache key, service, validation --------------------------------===
  Acc Key, Decode, Encode, Miss, Hit, Validate;
  double HandleAllocs = 0;
  server::Service NoCache{server::ServiceConfig{}};
  server::ServiceConfig CachedConfig;
  CachedConfig.Cache =
      std::make_shared<cache::ResultCache>(cache::ResultCacheConfig());
  std::string CacheErr;
  CachedConfig.Cache->open(CacheErr);
  server::Service Cached{CachedConfig};
  for (size_t I = 0; I != Progs.size(); ++I) {
    const Program &P = *Progs[I];
    const Strategy S = Strategy(I % NumStrategies);
    T.beginOp(++Op);
    ParseResult F = parseFunction(P.Text);
    cache::PipelineFingerprint FP;
    FP.Pipeline = strategyPipeline(S);
    if (S == Strategy::SpecPre)
      FP.ProfileKey = P.Profile.canonicalKey();
    Key.Us += timeUs(T, "cache.key", [&] { cache::requestKey(F.Fn, FP); });
    ++Key.Count;

    const std::string Payload = requestPayload(P, S, false);
    Decode.Us += timeUs(T, "server.decode",
                        [&] { (void)server::parseRequest(Payload); });
    ++Decode.Count;
    Value Resp;
    const uint64_t A0 = alloccount::allocations();
    Miss.Us += timeUs(T, "server.handle_miss",
                      [&] { Resp = NoCache.handle(Payload); });
    HandleAllocs += double(alloccount::allocations() - A0);
    ++Miss.Count;
    std::string Encoded;
    Encode.Us += timeUs(T, "server.encode", [&] { Encoded = Resp.dump(0); });
    ++Encode.Count;
    (void)Cached.handle(Payload);
    Value HitResp;
    Hit.Us += timeUs(T, "server.handle_hit",
                     [&] { HitResp = Cached.handle(Payload); });
    ++Hit.Count;
    if (!compileReference(Ps, P, S, Ref, nullptr, Error)) {
      R.wrong("probe: " + Error);
      continue;
    }
    for (const Value *V : {&Resp, &HitResp}) {
      const std::string Why = checkOkResponse(*V, Ref, P.Text, false, false);
      if (!Why.empty())
        R.wrong("probe: in-process service on " + P.Name + ": " + Why);
    }
    OracleVerdict OV;
    Validate.Us += timeUs(T, "interp.validate",
                          [&] { OV = compareUnderOracle(P.Text, Ref); });
    ++Validate.Count;
    if (!OV.Same)
      R.wrong("probe: " + P.Name + ": " + OV.Why);
  }
  R.add("cache.key_us_per_req", "us", Key.perCall());
  R.add("server.decode_us_per_req", "us", Decode.perCall());
  R.add("server.encode_us_per_req", "us", Encode.perCall());
  R.add("server.handle_miss_us_per_req", "us", Miss.perCall());
  R.add("server.handle_hit_us_per_req", "us", Hit.perCall());
  R.add("server.handle_allocs_per_req", "count",
        ratio(HandleAllocs, Miss.Count));
  R.add("interp.validate_us_per_req", "us", Validate.perCall());

  //===--- Counter registry under 1 and 4 threads -------------------------===
  R.add("support.stats_bump_ns_1t", "ns", statsBumpNs(1));
  R.add("support.stats_bump_ns_4t", "ns", statsBumpNs(4));

  //===--- Socket floors, and figures the workload has no traffic for ------===
  ServerProcess Shard, Router;
  std::string Err;
  if (!Shard.start({O.BinDir + "/lcm_serve", "--tcp=0", "--metrics-port=0",
                    "--workers=1", "--validators=1", "--cache-bytes=65536"},
                   10000, Err) ||
      !Router.start({O.BinDir + "/lcm_router", "--tcp=0", "--metrics-port=0",
                     "--shard=" + std::to_string(Shard.port()), "--workers=1",
                     "--cache-bytes=65536"},
                    10000, Err)) {
    R.wrong("probe fleet: " + Err);
    return false;
  }
  server::Client ToShard, ToRouter;
  if (!ToShard.connectTcp(Shard.port(), Err, 2000) ||
      !ToRouter.connectTcp(Router.port(), Err, 2000)) {
    R.wrong("probe fleet: " + Err);
    return false;
  }
  // The floors use the smallest program, answered from the caches.
  const Program *Smallest = Progs.front();
  for (const Program *P : Progs)
    if (P->Text.size() < Smallest->Text.size())
      Smallest = P;
  const std::string Tiny = requestPayload(*Smallest, Strategy::Lcm, false);
  T.beginOp(++Op);
  double ShardFloor, RouterFloor;
  {
    SpanScope Sp(T, "client.rtt_shard");
    ShardFloor = rttMedianUs(ToShard, Tiny, 300, Err);
  }
  {
    SpanScope Sp(T, "client.rtt_router");
    RouterFloor = rttMedianUs(ToRouter, Tiny, 300, Err);
  }
  if (ShardFloor < 0 || RouterFloor < 0)
    R.wrong("probe fleet: " + Err);
  R.add("server.rtt_floor_us", "us", ShardFloor);
  R.add("router.rtt_floor_us", "us", RouterFloor);

  SocketLayerFigures Fig = Own;
  if (!Fig.HaveFleetCache) {
    const auto S0 = statsCounters(scrapeMetrics(Shard.metricsPort()));
    const auto R0 = statsCounters(scrapeMetrics(Router.metricsPort()));
    uint64_t Sent = 0;
    for (unsigned Pass = 0; Pass != 2; ++Pass)
      for (size_t I = 0; I != Progs.size(); ++I) {
        const Strategy S = Strategy(I % NumStrategies);
        Value Resp;
        T.beginOp(++Op);
        SpanScope Sp(T, "client.request");
        if (!ToRouter.sendPayload(requestPayload(*Progs[I], S, I % 5 == 0),
                                  Err) ||
            !ToRouter.recvResponse(Resp, Err)) {
          R.wrong("probe fleet: " + Err);
          break;
        }
        ++Sent;
        if (!compileReference(Ps, *Progs[I], S, Ref, nullptr, Error))
          continue;
        const std::string Why =
            checkOkResponse(Resp, Ref, Progs[I]->Text, I % 5 == 0, false);
        if (!Why.empty())
          R.wrong("probe fleet: " + Progs[I]->Name + ": " + Why);
      }
    const auto S1 = statsCounters(scrapeMetrics(Shard.metricsPort()));
    const auto R1 = statsCounters(scrapeMetrics(Router.metricsPort()));
    const double H = counterDelta(S1, S0, "cache.mem.hits");
    const double M = counterDelta(S1, S0, "cache.mem.misses");
    Fig.HitRatio = ratio(H, H + M);
    Fig.EvictionsPerKreq =
        ratio(counterDelta(S1, S0, "cache.mem.evictions") * 1000.0,
              counterDelta(S1, S0, "server.requests"));
    const double RH = counterDelta(R1, R0, "router.cache.hits");
    const double RM = counterDelta(R1, R0, "router.cache.misses");
    Fig.RouterHitRatio = ratio(RH, RH + RM);
    Fig.Retries = counterDelta(R1, R0, "router.retries");
    Fig.Failovers = counterDelta(R1, R0, "router.failovers");
    R.Accounting.set("probe_fleet_requests", Value::number(Sent));
  }
  if (!Fig.HaveEdits) {
    // A module of up to twelve programs, then one-block deltas against it.
    std::vector<std::string> Texts;
    for (size_t I = 0; I != std::min<size_t>(Progs.size(), 12); ++I)
      Texts.push_back(Progs[I]->Text);
    auto Module = [&] {
      std::string M;
      for (const std::string &Tx : Texts)
        M += Tx;
      return M;
    };
    server::Request Q;
    Q.Ir = Module();
    Value Resp;
    const auto S0 = statsCounters(scrapeMetrics(Shard.metricsPort()));
    if (!ToShard.call(Q, Resp, Err) || !findString(Resp, "cache_key")) {
      R.wrong("probe fleet: module request failed " + Err);
    } else {
      std::string Base = *findString(Resp, "cache_key");
      double Reopt = 0, Edits = 0;
      for (unsigned I = 0; I != 20; ++I) {
        const size_t Fi = I % Texts.size();
        BlockEdit E;
        if (!makeBlockEdit(Texts[Fi], O.Seed * 31 + I,
                           "zq_probe" + std::to_string(I), E))
          continue;
        applyBlockEdit(Texts[Fi], E);
        server::Request D;
        D.BaseKey = Base;
        D.Patch.push_back({server::PatchOp::Kind::ReplaceBlock, E.Label, "",
                           Texts[Fi].substr(5, Texts[Fi].find('\n') - 5),
                           E.NewBlock});
        T.beginOp(++Op);
        SpanScope Sp(T, "client.edit");
        if (!ToShard.call(D, Resp, Err) || !findString(Resp, "cache_key")) {
          R.wrong("probe fleet: delta request failed " + Err);
          break;
        }
        Base = *findString(Resp, "cache_key");
        ++Edits;
        Reopt += double(functionsReoptimized(Resp));
      }
      const auto S1 = statsCounters(scrapeMetrics(Shard.metricsPort()));
      Fig.RetainedHitsPerEdit =
          ratio(counterDelta(S1, S0, "cache.retained.hits"), Edits);
      Fig.FnsReoptimizedPerEdit = ratio(Reopt, Edits);
    }
  }
  ToShard.close();
  ToRouter.close();
  Router.stop();
  Shard.stop();
  R.add("cache.hit_ratio", "ratio", Fig.HitRatio);
  R.add("cache.evictions_per_kreq", "count", Fig.EvictionsPerKreq);
  R.add("cache.router_hit_ratio", "ratio", Fig.RouterHitRatio);
  R.add("cache.retained_hits_per_edit", "count", Fig.RetainedHitsPerEdit);
  R.add("edit.fns_reoptimized_per_edit", "count", Fig.FnsReoptimizedPerEdit);
  R.add("router.retries", "count", Fig.Retries);
  R.add("router.failovers", "count", Fig.Failovers);

  T.setEnabled(false);
  R.add("trace.spans", "count", double(T.size()));
  Value Self = Value::object();
  for (const auto &[Name, Tot] : T.totals()) {
    Value S = Value::object();
    S.set("count", Value::number(Tot.Count));
    S.set("total_us", Value::number(Tot.TotalUs));
    S.set("self_us", Value::number(Tot.SelfUs));
    Self.set(Name, std::move(S));
  }
  R.Accounting.set("spans", std::move(Self));
  if (!O.TracePath.empty() && !T.write(O.TracePath))
    R.wrong("could not write spans to " + O.TracePath);
  return true;
}

} // namespace lcmbench
