//===- lcmbench/Procs.h - Server processes under test ---------------------===//
//
// Starts lcm_serve / lcm_router as child processes on ephemeral loopback
// ports, reads their CPU time and peak RSS from /proc, scrapes their
// /metrics, and stops them (SIGTERM, then wait).
//
//===----------------------------------------------------------------------===//

#ifndef LCMBENCH_PROCS_H
#define LCMBENCH_PROCS_H

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lcmbench {

class ServerProcess {
public:
  ServerProcess() = default;
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  /// Spawns \p Argv (Argv[0] an executable path) with stdout piped and
  /// waits up to \p TimeoutMs for its `listening tcp=` and `metrics tcp=`
  /// lines.  False with \p Error set on failure (the child is stopped).
  bool start(const std::vector<std::string> &Argv, int TimeoutMs,
             std::string &Error);

  /// SIGTERM, wait up to 10 s for a drained exit, then SIGKILL and wait.
  /// Returns the exit status of a normal exit, or -1.
  int stop();

  pid_t pid() const { return Pid; }
  int port() const { return Port; }
  int metricsPort() const { return MetricsPort; }
  /// The `kernels=` token of the startup banner.
  const std::string &kernels() const { return Kernels; }

private:
  pid_t Pid = -1;
  int OutFd = -1;
  int Port = 0;
  int MetricsPort = 0;
  std::string Kernels;
};

/// utime + stime of a process (all threads), in seconds.
double processCpuSeconds(pid_t Pid);
/// VmHWM of a process, in MiB.
double processPeakRssMiB(pid_t Pid);
/// CPU time of this process, in seconds.
double selfCpuSeconds();

/// GET /metrics from 127.0.0.1:\p Port; empty on failure.
std::string scrapeMetrics(int Port);
/// The `lcm_stats_counter{name="..."}` samples of an exposition.
std::map<std::string, uint64_t> statsCounters(const std::string &Exposition);
/// How much counter \p Name grew from \p Before to \p After.
double counterDelta(const std::map<std::string, uint64_t> &After,
                    const std::map<std::string, uint64_t> &Before,
                    const char *Name);

} // namespace lcmbench

#endif // LCMBENCH_PROCS_H
