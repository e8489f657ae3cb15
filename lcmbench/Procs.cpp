//===- lcmbench/Procs.cpp -------------------------------------------------===//

#include "Procs.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace lcmbench {

namespace {

using Clock = std::chrono::steady_clock;

int msLeft(Clock::time_point Deadline) {
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Deadline - Clock::now())
                  .count();
  return Left > 0 ? int(Left) : 0;
}

int portAfter(const std::string &Line, const char *Prefix) {
  if (Line.rfind(Prefix, 0) != 0)
    return 0;
  const size_t Colon = Line.rfind(':');
  return Colon == std::string::npos ? 0 : std::atoi(Line.c_str() + Colon + 1);
}

} // namespace

bool ServerProcess::start(const std::vector<std::string> &Argv,
                          int TimeoutMs, std::string &Error) {
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  Pid = ::fork();
  if (Pid < 0) {
    Error = std::string("fork: ") + std::strerror(errno);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    return false;
  }
  if (Pid == 0) {
    // A server must not outlive the benchmark that started it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(Pipe[1], STDOUT_FILENO);
    int Null = ::open("/dev/null", O_WRONLY);
    if (Null >= 0)
      ::dup2(Null, STDERR_FILENO);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    ::execv(Args[0], Args.data());
    ::_exit(127);
  }
  ::close(Pipe[1]);
  OutFd = Pipe[0];

  const Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(TimeoutMs);
  std::string Buf;
  bool BannerDone = false; // lcm_serve ends it with kernels=, lcm_router
                           // with shards=
  while (!BannerDone) {
    pollfd P{OutFd, POLLIN, 0};
    const int Left = msLeft(Deadline);
    if (Left == 0 || ::poll(&P, 1, Left) <= 0) {
      Error = Argv[0] + ": no startup banner within " +
              std::to_string(TimeoutMs) + " ms";
      stop();
      return false;
    }
    char Chunk[512];
    const ssize_t N = ::read(OutFd, Chunk, sizeof(Chunk));
    if (N <= 0) {
      Error = Argv[0] + ": exited during startup";
      stop();
      return false;
    }
    Buf.append(Chunk, size_t(N));
    size_t Nl;
    while ((Nl = Buf.find('\n')) != std::string::npos) {
      const std::string Line = Buf.substr(0, Nl);
      Buf.erase(0, Nl + 1);
      if (int P1 = portAfter(Line, "listening tcp="))
        Port = P1;
      if (int P2 = portAfter(Line, "metrics tcp="))
        MetricsPort = P2;
      if (Line.rfind("kernels=", 0) == 0)
        Kernels = Line.substr(8, Line.find(' ') - 8);
      BannerDone |= Line.rfind("kernels=", 0) == 0 ||
                    Line.rfind("shards=", 0) == 0;
    }
  }
  if (Port == 0 || MetricsPort == 0) {
    Error = Argv[0] + ": banner without listening/metrics ports";
    stop();
    return false;
  }
  return true;
}

int ServerProcess::stop() {
  int Result = -1;
  if (Pid > 0) {
    ::kill(Pid, SIGTERM);
    int Status = 0;
    bool Reaped = false;
    for (int I = 0; I != 1000 && !Reaped; ++I) {
      pid_t R = ::waitpid(Pid, &Status, WNOHANG);
      if (R == Pid)
        Reaped = true;
      else
        ::usleep(10000);
    }
    if (!Reaped) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
    } else if (WIFEXITED(Status)) {
      Result = WEXITSTATUS(Status);
    }
    Pid = -1;
  }
  if (OutFd >= 0) {
    ::close(OutFd);
    OutFd = -1;
  }
  Port = MetricsPort = 0;
  Kernels.clear();
  return Result;
}

double processCpuSeconds(pid_t Pid) {
  std::ifstream F("/proc/" + std::to_string(Pid) + "/stat");
  std::string Stat((std::istreambuf_iterator<char>(F)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall.
  const size_t Close = Stat.rfind(')');
  if (Close == std::string::npos)
    return 0.0;
  std::istringstream In(Stat.substr(Close + 2));
  std::string Field;
  unsigned long long UTime = 0, STime = 0;
  for (int I = 3; I <= 15 && (In >> Field); ++I) {
    if (I == 14)
      UTime = std::strtoull(Field.c_str(), nullptr, 10);
    if (I == 15)
      STime = std::strtoull(Field.c_str(), nullptr, 10);
  }
  return double(UTime + STime) / double(::sysconf(_SC_CLK_TCK));
}

double processPeakRssMiB(pid_t Pid) {
  std::ifstream F("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double selfCpuSeconds() {
  timespec Ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

std::string scrapeMetrics(int Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return {};
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(uint16_t(Port));
  std::string Out;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0) {
    const char Req[] = "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
    if (::send(Fd, Req, sizeof(Req) - 1, MSG_NOSIGNAL) ==
        ssize_t(sizeof(Req) - 1)) {
      char Buf[8192];
      ssize_t N;
      while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
        Out.append(Buf, size_t(N));
    }
  }
  ::close(Fd);
  const size_t Body = Out.find("\r\n\r\n");
  return Body == std::string::npos ? std::string() : Out.substr(Body + 4);
}

std::map<std::string, uint64_t> statsCounters(const std::string &Exposition) {
  std::map<std::string, uint64_t> Out;
  const std::string Prefix = "lcm_stats_counter{name=\"";
  std::istringstream In(Exposition);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind(Prefix, 0) != 0)
      continue;
    const size_t End = Line.find('"', Prefix.size());
    const size_t Space = Line.rfind(' ');
    if (End == std::string::npos || Space == std::string::npos)
      continue;
    Out[Line.substr(Prefix.size(), End - Prefix.size())] =
        std::strtoull(Line.c_str() + Space + 1, nullptr, 10);
  }
  return Out;
}

double counterDelta(const std::map<std::string, uint64_t> &After,
                    const std::map<std::string, uint64_t> &Before,
                    const char *Name) {
  auto A = After.find(Name);
  auto B = Before.find(Name);
  return double((A == After.end() ? 0 : A->second) -
                (B == Before.end() ? 0 : B->second));
}

} // namespace lcmbench
