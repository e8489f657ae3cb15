//===- lcmbench/Spans.h - In-memory spans around layer calls -------------===//
//
// The traced run records one span per call into a layer's public function:
// name, start, end, parent span and the id of the operation it serves.
// Spans stay in memory and are written out as JSON lines when the run ends;
// self time is a span's duration minus the part its child spans cover.
//
//===----------------------------------------------------------------------===//

#ifndef LCMBENCH_SPANS_H
#define LCMBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lcmbench {

class Tracer {
public:
  using Clock = std::chrono::steady_clock;

  /// Spans are recorded only while enabled.
  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Spans opened from now on belong to operation \p Op.
  void beginOp(uint64_t Op) { CurrentOp = Op; }

  int32_t open(const char *Name);
  void close(int32_t Index);

  struct Totals {
    uint64_t Count = 0;
    double TotalUs = 0.0;
    double SelfUs = 0.0;
  };
  /// Per span name: count, total and self time.
  std::map<std::string, Totals> totals() const;

  /// Writes every span as one JSON object per line.  False on I/O error.
  bool write(const std::string &Path) const;

  size_t size() const { return Spans.size(); }

private:
  struct Span {
    const char *Name;
    uint64_t Op;
    int32_t Parent;
    Clock::time_point Start, End;
  };
  bool Enabled = false;
  uint64_t CurrentOp = 0;
  int32_t Open = -1;
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
};

/// RAII span; a no-op when the tracer is disabled.
class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name)
      : T(T), Index(T.enabled() ? T.open(Name) : -1) {}
  ~SpanScope() {
    if (Index >= 0)
      T.close(Index);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int32_t Index;
};

} // namespace lcmbench

#endif // LCMBENCH_SPANS_H
