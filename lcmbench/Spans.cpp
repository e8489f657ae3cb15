//===- lcmbench/Spans.cpp -------------------------------------------------===//

#include "Spans.h"

#include <cstdio>

namespace lcmbench {

int32_t Tracer::open(const char *Name) {
  Spans.push_back({Name, CurrentOp, Open, Clock::now(), Clock::time_point()});
  Open = int32_t(Spans.size() - 1);
  return Open;
}

void Tracer::close(int32_t Index) {
  Spans[size_t(Index)].End = Clock::now();
  Open = Spans[size_t(Index)].Parent;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> ChildUs(Spans.size(), 0.0);
  auto Us = [](const Span &S) {
    return std::chrono::duration<double, std::micro>(S.End - S.Start).count();
  };
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildUs[size_t(S.Parent)] += Us(S);
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Totals &T = Out[Spans[I].Name];
    ++T.Count;
    T.TotalUs += Us(Spans[I]);
    T.SelfUs += Us(Spans[I]) - ChildUs[I];
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  auto Ns = [this](Clock::time_point T) {
    return (long long)std::chrono::duration_cast<std::chrono::nanoseconds>(
               T - Epoch)
        .count();
  };
  for (size_t I = 0; I != Spans.size(); ++I)
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 I, Spans[I].Name, (unsigned long long)Spans[I].Op,
                 Spans[I].Parent, Ns(Spans[I].Start), Ns(Spans[I].End));
  return std::fclose(F) == 0;
}

} // namespace lcmbench
