//===- lcmbench/main.cpp - The end-to-end benchmark ----------------------===//
//
//   lcmbench --workload compile_batch|serve_fleet|edit_loop --seed N
//            --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints a stamp line, an accounting line and, last, one JSON object with
// the keys correct, attempted, failed and metrics.  Exits non-zero only
// when the run could not be carried out.
//
//===----------------------------------------------------------------------===//

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "Checks.h"
#include "Common.h"
#include "support/SimdWords.h"

using namespace lcmbench;
using lcm::json::Value;

namespace lcmbench {

void ProcessFigures::add(std::vector<double> LatMs,
                         const std::vector<double> &Rates, double CpuSeconds,
                         double RssMiB, double Setup) {
  std::sort(LatMs.begin(), LatMs.end());
  OpsPerS.push_back(median(Rates));
  P50Ms.push_back(percentileSorted(LatMs, 50));
  P99Ms.push_back(percentileSorted(LatMs, 99));
  CpuUsPerOp.push_back(LatMs.empty() ? 0.0
                                     : CpuSeconds * 1e6 / double(LatMs.size()));
  PeakRssMiB.push_back(RssMiB);
  SetupS.push_back(Setup);
}

void addTimingMetrics(RunReport &R, const ProcessFigures &F) {
  R.add("ops_per_s", "1/s", trimmedMean(F.OpsPerS));
  R.add("p50_ms", "ms", trimmedMean(F.P50Ms));
  R.add("p99_ms", "ms", trimmedMean(F.P99Ms));
  R.add("cpu_us_per_op", "us", trimmedMean(F.CpuUsPerOp));
  R.add("peak_rss_mb", "MiB", trimmedMean(F.PeakRssMiB));
  // Set-up is short and a process start now and then stalls: the median.
  R.add("setup_s", "s", median(F.SetupS));
  Value PerProcess = Value::array();
  for (double V : F.OpsPerS)
    PerProcess.push(Value::number(V));
  R.Accounting.set("process_ops_per_s", std::move(PerProcess));
}

void addQualityMetrics(RunReport &R, const QualityCounts &Q) {
  R.add("dyn_evals", "count", double(Q.DynEvals));
  R.add("static_instrs", "count", double(Q.StaticInstrs));
  R.add("temp_live_slots", "count", double(Q.TempLiveSlots));
}

uint64_t functionsReoptimized(const Value &Response) {
  uint64_t N = 0;
  if (const Value *Fns = Response.find("functions"))
    for (const Value &F : Fns->items())
      if (const Value *C = F.find("cached"))
        N += C->isBool() && !C->asBool();
  return N;
}

} // namespace lcmbench

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "lcmbench: %s\n"
               "usage: lcmbench --workload compile_batch|serve_fleet|"
               "edit_loop --seed N --seconds S --trace 0|1\n"
               "                [--trace-out FILE]\n",
               Why);
  std::exit(2);
}

std::string dirOfSelf() {
  char Buf[4096];
  const ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return ".";
  std::string P(Buf, size_t(N));
  return P.substr(0, P.rfind('/'));
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  RunOptions O;
  O.BinDir = dirOfSelf();
  bool MeasureChild = false;
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        usage(("missing value for " + A).c_str());
      return argv[++I];
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Next().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Next() != "0";
    else if (A == "--trace-out")
      O.TracePath = Next();
    else if (A == "--measure-child")
      MeasureChild = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.Seconds <= 0 || O.Seconds > 120)
    usage("--seconds must be in (0, 120]");
  if (MeasureChild)
    return compileBatchMeasureChild(O);

  RunReport R;
  R.Stamp.set("workload", Value::str(O.Workload));
  R.Stamp.set("seed", Value::number(O.Seed));
  R.Stamp.set("seconds", Value::number(O.Seconds));
  R.Stamp.set("trace", Value::boolean(O.Trace));
  R.Stamp.set("hardware_threads",
              Value::number(uint64_t(std::thread::hardware_concurrency())));
  R.Stamp.set("kernel_backend",
              Value::str(lcm::simdwords::backendName()));
  R.Stamp.set("compiler", Value::str(LCMBENCH_COMPILER));
  R.Stamp.set("build_flags", Value::str(LCMBENCH_FLAGS));

  if (O.Workload == "compile_batch")
    runCompileBatch(O, R);
  else if (O.Workload == "serve_fleet")
    runServeFleet(O, R);
  else if (O.Workload == "edit_loop")
    runEditLoop(O, R);
  else
    usage("unknown workload");

  for (const std::string &E : R.Errors)
    std::printf("error: %s\n", E.c_str());
  std::printf("{\"stamp\": %s}\n", R.Stamp.dump(0).c_str());
  std::printf("{\"accounting\": %s}\n", R.Accounting.dump(0).c_str());
  if (R.Attempted == 0) {
    std::printf("lcmbench: no operation was attempted\n");
    return 1;
  }
  std::string Line = "{\"correct\": ";
  Line += R.Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(R.Attempted);
  Line += ", \"failed\": " + std::to_string(R.Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    if (I)
      Line += ", ";
    Line += "\"" + M.Name + "\": {\"value\": " + fmt(M.Value) +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return 0;
}
