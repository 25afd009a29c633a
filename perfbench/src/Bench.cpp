//===- perfbench/src/Bench.cpp - Shared benchmark machinery ---------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include <sys/resource.h>

namespace pb {

double quantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P * static_cast<double>(V.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

u64 samplesBeyond(u64 N, double P) {
  double Rank = std::ceil(P * static_cast<double>(N));
  u64 R = Rank < 1 ? 1 : static_cast<u64>(Rank);
  return N > R ? N - R : 0;
}

u64 minSamplesFor(double P) {
  u64 N = 1;
  while (!tailReportable(N, P))
    ++N;
  return N;
}

BlockStats blockQuantiles(const std::vector<double> &Lat, size_t Block,
                       double P) {
  BlockStats W;
  size_t N = Lat.size() / Block;
  for (size_t K = 0; K < N; ++K) {
    auto First = Lat.begin() + static_cast<std::ptrdiff_t>(K * Block);
    auto Last = K + 1 == N ? Lat.end()
                           : First + static_cast<std::ptrdiff_t>(Block);
    std::vector<double> G(First, Last);
    W.P50.push_back(median(G));
    W.Tail.push_back(quantile(std::move(G), P));
  }
  return W;
}

const char *spanName(SpanName N) {
  static constexpr const char *Names[] = {
      "request",      "tir.verify",     "tpde_tir.compile", "core.compile.x64",
      "core.compile.a64", "asmx.elf_write.x64", "asmx.elf_write.a64",
      "asmx.map",     "service.submit", "service.wait",     "exec.call",
      "replay",       "tpde_tir.prepare", "core.analyze",   "uir.verify",
      "uir.fingerprint", "uir.compile"};
  static_assert(sizeof(Names) / sizeof(Names[0]) ==
                static_cast<size_t>(SpanName::Count));
  return Names[static_cast<size_t>(N)];
}

std::vector<Span> Trace::spans() const {
  size_t N = std::min<size_t>(Next.load(), Buf.size());
  return {Buf.begin(), Buf.begin() + static_cast<std::ptrdiff_t>(N)};
}

SelfTimes computeSelfTimes(const std::vector<Span> &Spans) {
  SelfTimes R;
  R.SelfNs.resize(Spans.size());
  std::vector<std::vector<u32>> Kids(Spans.size());
  for (u32 I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent < Spans.size())
      Kids[Spans[I].Parent].push_back(I);
  std::vector<std::pair<u64, u64>> Iv;
  for (u32 I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    u64 Dur = P.End > P.Start ? P.End - P.Start : 0;
    Iv.clear();
    u64 SumKids = 0;
    bool Bad = P.End < P.Start;
    for (u32 K : Kids[I]) {
      const Span &C = Spans[K];
      if (C.Start < P.Start || C.End > P.End || C.End < C.Start)
        Bad = true;
      u64 S = std::max(C.Start, P.Start), E = std::min(C.End, P.End);
      if (E > S)
        Iv.push_back({S, E});
      SumKids += C.End > C.Start ? C.End - C.Start : 0;
    }
    if (SumKids > Dur)
      Bad = true;
    std::sort(Iv.begin(), Iv.end());
    u64 Covered = 0, CurS = 0, CurE = 0;
    for (auto [S, E] : Iv) {
      if (CurE <= S) {
        Covered += CurE - CurS;
        CurS = S, CurE = E;
      } else {
        CurE = std::max(CurE, E);
      }
    }
    Covered += CurE - CurS;
    R.SelfNs[I] = Dur - std::min(Dur, Covered);
    R.Violations += Bad ? 1 : 0;
  }
  return R;
}

std::map<u32, std::vector<u64>>
selfTimeByRequest(const std::vector<Span> &Spans, const SelfTimes &ST) {
  std::map<u32, std::vector<u64>> Out;
  for (const Span &S : Spans)
    if (S.Name == SpanName::Request && S.Parent == Trace::NoSlot)
      Out[S.Req].assign(static_cast<size_t>(SpanName::Count), 0);
  for (size_t I = 0; I < Spans.size(); ++I) {
    auto It = Out.find(Spans[I].Req);
    // Replay spans carry no request root; requests lacking one are skipped.
    if (It == Out.end() || Spans[I].Name == SpanName::Replay)
      continue;
    It->second[static_cast<size_t>(Spans[I].Name)] += ST.SelfNs[I];
  }
  return Out;
}

bool writeChromeTrace(const std::vector<Span> &Spans, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  u64 Base = ~0ull;
  for (const Span &S : Spans)
    Base = std::min(Base, S.Start);
  std::fputs("{\"traceEvents\":[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Ts = static_cast<double>(S.Start - Base) / 1e3;
    double Dur =
        S.End > S.Start ? static_cast<double>(S.End - S.Start) / 1e3 : 0;
    long long Parent =
        S.Parent == Trace::NoSlot ? -1 : static_cast<long long>(S.Parent);
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"req\":%u}}\n",
                 I ? "," : "", spanName(S.Name), S.Req, Ts, Dur, I, Parent,
                 S.Req);
  }
  std::fputs("]}\n", F);
  return std::fclose(F) == 0;
}

void Result::mismatch(std::string Why) {
  // The first few reasons are enough to debug; later ones are only counted.
  constexpr u64 Shown = 5;
  if (Mismatches++ < Shown) {
    std::fprintf(stderr, "perfbench: wrong output: %s\n", Why.c_str());
    Notes.push_back("MISMATCH: " + std::move(Why));
  }
  Correct = false;
}

double peakRssMb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

unsigned hostThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

bool collectRequestLayers(const Trace &T,
                          const std::map<SpanName, std::string> &Names,
                          LayerSamples &Out, std::string &Why) {
  std::vector<Span> Spans = T.spans();
  SelfTimes ST = computeSelfTimes(Spans);
  if (ST.Violations) {
    Why = std::to_string(ST.Violations) +
          " span(s) whose children are not nested inside them";
    return false;
  }
  for (const Span &S : Spans)
    if (S.Name == SpanName::Request && S.Parent == Trace::NoSlot)
      Out["bench.request_us"].push_back(toUs(S.End - S.Start));
  for (auto &[Req, ByName] : selfTimeByRequest(Spans, ST))
    for (auto &[N, Metric] : Names)
      Out[Metric].push_back(toUs(ByName[static_cast<size_t>(N)]));
  return true;
}

void reportLayers(const LayerSamples &S,
                  const std::map<std::string, std::string> &Shares,
                  Result &R) {
  auto Sum = [](const std::vector<double> &V) {
    double T = 0;
    for (double X : V)
      T += X;
    return T;
  };
  auto Req = S.find("bench.request_us");
  double ReqSum = Req == S.end() ? 0 : Sum(Req->second);
  for (auto &[Name, V] : S) {
    R.set(Name, median(V));
    auto Sh = Shares.find(Name);
    if (Sh != Shares.end())
      R.set(Sh->second, ReqSum > 0 ? Sum(V) / ReqSum : 0);
  }
}

void reportPassShares(double Prepare, double Analyze, double Compile,
                      Result &R) {
  double C = Compile > 0 ? Compile : 1;
  R.set("share.prepare", Prepare / C);
  R.set("share.analyze", Analyze / C);
  R.set("share.codegen", std::max(0.0, Compile - Prepare - Analyze) / C);
}

} // namespace pb
