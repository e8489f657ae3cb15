//===- lcmbench/CompileBatch.cpp - In-process batch compilation ----------===//
//
// One thread compiles a seeded draw of distinct functions text to text
// under each of the three placement strategies, with no cache.  One round
// is every function under every strategy; the run repeats whole rounds.
//
// A specpre compile fails when its output's profiled cost exceeds the lcm
// output's under the same profile.  On the draw's seed-independent
// programs such a failure repeats identically in every round of every run,
// so it is counted in `failed`; on a seeded program it makes the run
// incorrect.  The quality counts are taken over the seed-independent
// programs, so they repeat exactly whatever the seed.
//
// Untraced runs measure in CompileProcesses fresh processes in turn (this
// binary re-executed with --measure-child), each for an equal share of the
// run, and pool their figures: on a shared VM a process's speed varies with
// the process, so one process's figure is a poor sample.  Each child
// generates its inputs and warms up (its set-up time), measures, and hands
// every distinct output back for the byte-for-byte check.
//
//===----------------------------------------------------------------------===//

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

#include "Checks.h"
#include "Common.h"
#include "Procs.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "specpre/SpecPre.h"

using namespace lcm;
using lcm::json::Value;

namespace lcmbench {

namespace {

struct Reference {
  std::string Ir;
  Function In;
  Function Out;
  uint64_t EvalsOut = 0;
};

/// Compiles one (program, strategy) the way the timed loop does.
bool compileOnce(const Pipelines &Ps, const Program &P, Strategy S,
                 ParserScratch &Scratch, ParseResult &Parsed,
                 std::string &Out) {
  parseFunctionInto(P.Text, IRLimits(), Scratch, Parsed);
  if (!Parsed)
    return false;
  specpre::ProfileContext::Scope Scope(S == Strategy::SpecPre ? &P.Profile
                                                              : nullptr);
  if (!Ps.P[unsigned(S)].run(Parsed.Fn).Ok)
    return false;
  Out.clear();
  printFunction(Parsed.Fn, Out);
  return true;
}

/// What one measuring process saw.
struct Measured {
  std::vector<double> LatMs;
  std::vector<double> RoundRates;
  double CpuSeconds = 0;
  uint64_t Ops = 0;
  /// Compiles that returned an error, per strategy.
  uint64_t Failed[NumStrategies] = {};
  /// Outputs that differed from the same compile's first output.
  uint64_t Unstable = 0;
};

/// Whole rounds until \p Seconds have passed.  Every output is compared
/// with \p First, the outputs of the warm-up round.
Measured timedRounds(const std::vector<Program> &Progs, const Pipelines &Ps,
                     const std::vector<std::string> &First, double Seconds,
                     Tracer *T) {
  Measured M;
  ParserScratch Scratch;
  ParseResult Parsed;
  std::string Out;
  const size_t N = Progs.size() * NumStrategies;
  const double Cpu0 = selfCpuSeconds();
  const Clock::time_point T0 = Clock::now();
  Clock::time_point Now = T0;
  while (secondsBetween(T0, Now) < Seconds || M.LatMs.size() < MinSamples) {
    const Clock::time_point RoundStart = Now;
    for (size_t I = 0; I != N; ++I, ++M.Ops) {
      const Strategy S = Strategy(I % NumStrategies);
      if (T)
        T->beginOp(M.Ops);
      const Clock::time_point B = Clock::now();
      bool Ok;
      if (T) {
        SpanScope Span(*T, "driver.compile");
        Ok = compileOnce(Ps, Progs[I / NumStrategies], S, Scratch, Parsed,
                         Out);
      } else {
        Ok = compileOnce(Ps, Progs[I / NumStrategies], S, Scratch, Parsed,
                         Out);
      }
      M.LatMs.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - B)
              .count());
      if (!Ok)
        ++M.Failed[unsigned(S)];
      else if (Out != First[I])
        ++M.Unstable;
    }
    Now = Clock::now();
    M.RoundRates.push_back(double(N) / secondsBetween(RoundStart, Now));
  }
  M.CpuSeconds = selfCpuSeconds() - Cpu0;
  return M;
}

/// Generates the draw and compiles every function once.
bool warmUp(uint64_t Seed, std::vector<Program> &Progs, const Pipelines &Ps,
            std::vector<std::string> &First) {
  Progs = drawBatch(Seed);
  ParserScratch Scratch;
  ParseResult Parsed;
  First.assign(Progs.size() * NumStrategies, std::string());
  for (size_t I = 0; I != First.size(); ++I)
    if (!compileOnce(Ps, Progs[I / NumStrategies],
                     Strategy(I % NumStrategies), Scratch, Parsed, First[I]))
      return false;
  return true;
}

Value numbers(const std::vector<double> &V) {
  Value A = Value::array();
  for (double X : V)
    A.push(Value::number(X));
  return A;
}

std::vector<double> doubles(const Value *A) {
  std::vector<double> V;
  if (A)
    for (const Value &X : A->items())
      V.push_back(X.asDouble());
  return V;
}

/// One measuring child: returns its set-up seconds (until "ready"), or a
/// negative value on failure; \p Result receives its last line.
double runMeasureChild(const RunOptions &O, double Seconds,
                       json::Value &Result) {
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return -1;
  const std::string Seed = std::to_string(O.Seed);
  char Secs[32];
  std::snprintf(Secs, sizeof(Secs), "%.6f", Seconds);
  const Clock::time_point T0 = Clock::now();
  const pid_t Pid = ::fork();
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    ::dup2(Pipe[1], STDOUT_FILENO);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    ::execl("/proc/self/exe", "lcmbench", "--measure-child", "--workload",
            O.Workload.c_str(), "--seed", Seed.c_str(), "--seconds", Secs,
            (char *)nullptr);
    ::_exit(127);
  }
  ::close(Pipe[1]);
  std::string Out;
  double Setup = -1;
  char Buf[65536];
  ssize_t N;
  while ((N = ::read(Pipe[0], Buf, sizeof(Buf))) > 0) {
    Out.append(Buf, size_t(N));
    if (Setup < 0 && Out.find("ready\n") != std::string::npos)
      Setup = secondsBetween(T0, Clock::now());
  }
  ::close(Pipe[0]);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 || Setup < 0)
    return -1;
  const size_t Last = Out.rfind('\n', Out.size() - 2);
  json::ParseResult P =
      json::parse(Out.substr(Last == std::string::npos ? 0 : Last + 1));
  if (!P.Ok)
    return -1;
  Result = std::move(P.V);
  return Setup;
}

} // namespace

int compileBatchMeasureChild(const RunOptions &O) {
  std::vector<Program> Progs;
  const Pipelines Ps;
  std::vector<std::string> First;
  if (!warmUp(O.Seed, Progs, Ps, First))
    return 1;
  std::printf("ready\n");
  std::fflush(stdout);
  Measured M = timedRounds(Progs, Ps, First, O.Seconds, nullptr);
  // Before the report below is built: its size grows with the samples.
  const double PeakRss = processPeakRssMiB(::getpid());
  Value R = Value::object();
  R.set("lat_ms", numbers(M.LatMs));
  R.set("round_rates", numbers(M.RoundRates));
  R.set("cpu_s", Value::number(M.CpuSeconds));
  R.set("peak_rss_mib", Value::number(PeakRss));
  R.set("ops", Value::number(M.Ops));
  Value Failed = Value::array();
  for (uint64_t F : M.Failed)
    Failed.push(Value::number(F));
  R.set("failed", std::move(Failed));
  R.set("unstable", Value::number(M.Unstable));
  Value Outs = Value::array();
  for (std::string &S : First)
    Outs.push(Value::str(std::move(S)));
  R.set("outputs", std::move(Outs));
  std::printf("%s\n", R.dump(0).c_str());
  return 0;
}

void runCompileBatch(const RunOptions &O, RunReport &R) {
  const std::vector<Program> Progs = drawBatch(O.Seed);
  const Pipelines Ps;
  const size_t N = Progs.size() * NumStrategies;

  // References and the checks that do not depend on the timed loop.
  std::vector<Reference> Refs(N);
  uint64_t Simd = 0, Scalar = 0;
  Value CostFailures = Value::array();
  for (size_t PI = 0; PI != Progs.size(); ++PI) {
    const Program &P = Progs[PI];
    for (unsigned S = 0; S != NumStrategies; ++S) {
      Reference &Ref = Refs[PI * NumStrategies + S];
      std::string Error;
      ParseResult In = parseFunction(P.Text);
      if (!In || !compileReference(Ps, P, Strategy(S), Ref.Ir, &Ref.Out,
                                   Error)) {
        R.wrong("reference compile failed: " + Error);
        continue;
      }
      Ref.In = std::move(In.Fn);
      // Which side of the 512-expression SIMD threshold the solver ran on.
      (Ref.Out.exprs().size() >= 512 ? Simd : Scalar) += 1;
      OracleVerdict V = compareUnderOracle(P.Text, Ref.Ir);
      if (!V.Same)
        R.wrong(P.Name + " [" + strategyName(Strategy(S)) + "]: " + V.Why);
      if (Strategy(S) != Strategy::SpecPre && V.MoreEvalRuns)
        R.wrong(P.Name + " [" + strategyName(Strategy(S)) +
                "]: evaluates more expressions than its input");
      Ref.EvalsOut = V.EvalsOut;
    }
    const Reference &Lcm = Refs[PI * NumStrategies + unsigned(Strategy::Lcm)];
    const Reference &Spec =
        Refs[PI * NumStrategies + unsigned(Strategy::SpecPre)];
    const uint64_t SpecCost = profiledCostOf(Spec.In, P.Profile, Spec.Out);
    const uint64_t LcmCost = profiledCostOf(Lcm.In, P.Profile, Lcm.Out);
    if (SpecCost <= LcmCost)
      continue;
    const std::string Why = P.Name + " (" + P.ProfileMode +
                            " profile): specpre profiled cost " +
                            std::to_string(SpecCost) + " exceeds lcm's " +
                            std::to_string(LcmCost);
    if (PI < BatchFixedPrograms)
      CostFailures.push(Value::str(Why));
    else
      R.wrong(Why);
  }
  // Failed compiles per round, all specpre ones.
  const uint64_t FailedPerRound = CostFailures.size();
  R.Accounting.set("specpre_cost_failures", std::move(CostFailures));
  std::vector<QualitySample> Quality;
  for (size_t I = 0; I != BatchFixedPrograms * NumStrategies; ++I)
    Quality.push_back({&Refs[I].In, &Refs[I].Out, Refs[I].EvalsOut});
  QualityCounts Q;
  std::string QErr;
  if (!measureQuality(Quality, Q, QErr))
    R.wrong(QErr);
  R.Accounting.set("functions", Value::number(uint64_t(Progs.size())));
  R.Accounting.set("functions_simd_side", Value::number(Simd / NumStrategies));
  R.Accounting.set("functions_scalar_side",
                   Value::number(Scalar / NumStrategies));
  if (Simd == 0 || Scalar == 0)
    R.wrong("the draw does not straddle the SIMD threshold");

  // Every compile is attempted equally often per strategy: rounds are
  // whole, so the per-strategy counts are the total over three.
  uint64_t Failed[NumStrategies] = {};
  auto Count = [&](const Measured &M) {
    R.Attempted += M.Ops;
    for (unsigned S = 0; S != NumStrategies; ++S)
      Failed[S] += M.Failed[S];
    Failed[unsigned(Strategy::SpecPre)] += M.Ops / N * FailedPerRound;
  };
  auto Account = [&] {
    Value PerStrategy = Value::object();
    for (unsigned S = 0; S != NumStrategies; ++S) {
      Value A = Value::object();
      A.set("attempted", Value::number(R.Attempted / NumStrategies));
      A.set("failed", Value::number(Failed[S]));
      PerStrategy.set(strategyName(Strategy(S)), std::move(A));
      R.Failed += Failed[S];
    }
    R.Accounting.set("compiles", std::move(PerStrategy));
  };

  if (O.Trace) {
    // In-process: the first half untraced, the second with one span per
    // compile, so the two rates give the tracing overhead.
    std::vector<Program> Own;
    std::vector<std::string> First;
    if (!warmUp(O.Seed, Own, Ps, First)) {
      R.wrong("warm-up compile failed");
      return;
    }
    for (size_t I = 0; I != N; ++I)
      if (First[I] != Refs[I].Ir)
        R.wrong("output differs from its checked reference");
    Tracer T;
    Measured Plain = timedRounds(Own, Ps, First, O.Seconds / 2, nullptr);
    T.setEnabled(true);
    Measured Traced = timedRounds(Own, Ps, First, O.Seconds / 2, &T);
    T.setEnabled(false);
    Count(Plain);
    Count(Traced);
    if (Plain.Unstable + Traced.Unstable)
      R.wrong("a compile's output changed between rounds");
    Account();
    const double Untraced = median(Plain.RoundRates);
    R.add("trace.overhead_pct", "%",
          Untraced > 0
              ? (Untraced - median(Traced.RoundRates)) / Untraced * 100.0
              : 0.0);
    runLayerProbe(O, Progs, {}, SocketLayerFigures(), T, R);
    return;
  }

  ProcessFigures Figs;
  uint64_t Rounds = 0;
  for (unsigned K = 0; K != CompileProcesses; ++K) {
    Value C;
    const double Setup =
        runMeasureChild(O, O.Seconds / CompileProcesses, C);
    if (Setup < 0) {
      R.wrong("measuring process failed");
      return;
    }
    const std::vector<double> Rates = doubles(C.find("round_rates"));
    Rounds += Rates.size();
    Figs.add(doubles(C.find("lat_ms")), Rates, C.find("cpu_s")->asDouble(),
             C.find("peak_rss_mib")->asDouble(), Setup);
    Measured M;
    M.Ops = C.find("ops")->asUInt();
    const std::vector<double> F = doubles(C.find("failed"));
    for (unsigned S = 0; S != NumStrategies && S < F.size(); ++S)
      M.Failed[S] = uint64_t(F[S]);
    Count(M);
    if (C.find("unstable")->asUInt())
      R.wrong("a compile's output changed between rounds");
    const Value *Outs = C.find("outputs");
    if (!Outs || Outs->size() != N) {
      R.wrong("measuring process returned no outputs");
      continue;
    }
    for (size_t I = 0; I != N; ++I) {
      const std::string Diff =
          firstDifference(Outs->items()[I].asString(), Refs[I].Ir);
      if (!Diff.empty())
        R.wrong(Progs[I / NumStrategies].Name + " [" +
                strategyName(Strategy(I % NumStrategies)) +
                "]: output differs from its checked reference: " + Diff);
    }
  }
  Account();
  R.Accounting.set("rounds", Value::number(Rounds));
  addTimingMetrics(R, Figs);
  addQualityMetrics(R, Q);
}

} // namespace lcmbench
