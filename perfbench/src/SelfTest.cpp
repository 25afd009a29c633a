//===- perfbench/src/SelfTest.cpp - Tests of the benchmark's own logic ----===//
///
/// \file
/// The percentile rule, open-loop due-time accounting and lateness, span
/// self time and nesting, and the error_rate denominator. They run at the
/// start of every benchmark run and alone with --self-test.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>

namespace pb {
namespace {

int Failures = 0;

void expect(bool Cond, const char *What) {
  if (!Cond) {
    std::fprintf(stderr, "perfbench self-test failed: %s\n", What);
    ++Failures;
  }
}

void testPercentiles() {
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(101 - I); // unsorted on purpose
  expect(quantile(V, 0.5) == 50, "median of 1..100 is 50 (nearest rank)");
  expect(quantile(V, 0.99) == 99, "p99 of 1..100 is 99");
  expect(quantile(V, 0.9) == 90, "p90 of 1..100 is 90");
  expect(quantile({7}, 0.99) == 7, "quantile of one sample");
  expect(samplesBeyond(100, 0.99) == 1, "one sample beyond p99 of 100");
  expect(samplesBeyond(1000, 0.99) == 10, "ten samples beyond p99 of 1000");
  expect(!tailReportable(999, 0.99), "p99 of 999 samples is not reportable");
  expect(tailReportable(1000, 0.99), "p99 of 1000 samples is reportable");
  expect(minSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  expect(minSamplesFor(0.9) == 100, "p90 needs 100 samples");
}

void testOpenLoop() {
  Schedule S{1000, 1000.0}; // one request per ms from t = 1000 ns
  expect(S.due(0) == 1000, "first request is due at the start");
  expect(S.due(5) == 1000 + 5'000'000, "request 5 is due 5 ms later");
  // Sent on time: no lateness; latency runs from the due time.
  expect(S.lateness(3, S.due(3)) == 0, "on-time send is not late");
  expect(S.latency(3, S.due(3) + 200) == 200, "latency from due time");
  // A stall: request 3 is sent 2.5 ms late and takes 100 ns to serve. Its
  // latency counts the stall, not only the service time.
  u64 Sent = S.due(3) + 2'500'000;
  expect(S.lateness(3, Sent) == 2'500'000, "lateness of a stalled send");
  expect(S.latency(3, Sent + 100) == 2'500'100,
         "latency of a stalled request includes the stall");
  // Early completion (clock reads before the due time) clamps to zero.
  expect(S.latency(4, S.due(4) - 1) == 0, "latency never negative");
}

void testBlocks() {
  // Three blocks of 1000 jobs; the second holds a stall that makes 5% of its
  // jobs slow. The 5 jobs left over join the third block.
  std::vector<double> Lat;
  for (u64 I = 0; I < 3005; ++I) {
    bool Stalled = I >= 1000 && I < 1050;
    Lat.push_back(Stalled ? 5000.0 : 10.0 + static_cast<double>(I % 100));
  }
  BlockStats W = blockQuantiles(Lat, 1000, 0.99);
  expect(W.Tail.size() == 3, "leftover jobs join the last block");
  expect(W.Tail[0] == 108 && W.Tail[2] == 108, "block p99 without a stall");
  expect(W.Tail[1] == 5000, "a stall sets its own block's p99");
  expect(median(W.Tail) == 108, "the median block p99 ignores one stall");
  expect(W.P50[1] == 64, "block median");
  expect(blockQuantiles(std::vector<double>(999, 1.0), 1000, 0.99).Tail.empty(),
         "no block from too few samples");
}

void testSelfTime() {
  // root [0,100): children [10,30) and [20,50) overlap -> cover [10,50);
  // grandchild [12,18) inside the first child.
  std::vector<Span> Sp = {
      {0, 100, 1, Trace::NoSlot, SpanName::Request},
      {10, 30, 1, 0, SpanName::TirVerify},
      {20, 50, 1, 0, SpanName::Compile},
      {12, 18, 1, 1, SpanName::Map},
  };
  SelfTimes ST = computeSelfTimes(Sp);
  expect(ST.SelfNs[0] == 60, "root self time excludes the union of children");
  expect(ST.SelfNs[1] == 14, "child self time excludes its grandchild");
  expect(ST.SelfNs[2] == 30, "leaf self time is its duration");
  expect(ST.SelfNs[3] == 6, "grandchild self time");
  // Overlapping children last 50 ns in total inside a 100 ns root: fine.
  expect(ST.Violations == 0, "nested spans are not violations");
  // A child that ends after its parent, and children longer than the parent.
  std::vector<Span> Bad = {
      {0, 10, 2, Trace::NoSlot, SpanName::Request},
      {5, 12, 2, 0, SpanName::Compile},
  };
  expect(computeSelfTimes(Bad).Violations == 1,
         "escaping child is a violation");
  std::vector<Span> Over = {
      {0, 10, 3, Trace::NoSlot, SpanName::Request},
      {0, 8, 3, 0, SpanName::Compile},
      {2, 10, 3, 0, SpanName::Map},
  };
  expect(computeSelfTimes(Over).Violations == 1,
         "children summing past the parent are a violation");
  auto ByReq = selfTimeByRequest(Sp, ST);
  expect(ByReq.size() == 1 &&
             ByReq[1][static_cast<size_t>(SpanName::Request)] == 60 &&
             ByReq[1][static_cast<size_t>(SpanName::Map)] == 6,
         "self time grouped by request and name");

  Trace T(2);
  u32 A = T.add(SpanName::Request, 0, Trace::NoSlot, 1, 2);
  T.add(SpanName::Map, 0, A, 1, 2);
  expect(T.add(SpanName::Map, 0, A, 1, 2) == Trace::NoSlot && T.dropped() == 1,
         "a full trace buffer drops spans and counts them");
  Trace Off(4);
  expect(Off.begin(SpanName::Map, 0) == Trace::NoSlot && Off.spans().empty(),
         "a disabled trace records nothing");
}

void testErrorRate() {
  Outcome O;
  for (int I = 0; I < 7; ++I)
    O.ok();
  O.refused(); // shed or deadline-exceeded
  O.wrong();   // completed with a wrong output
  O.refused();
  expect(O.Attempted == 10, "every request is attempted, refused ones too");
  expect(O.failed() == 3, "refused and wrong requests both fail");
  expect(std::fabs(O.errorRate() - 0.3) < 1e-12,
         "error_rate = failures / attempted");
  expect(Outcome{}.errorRate() == 0, "no requests, no error rate");
}

} // namespace

int runSelfTests() {
  Failures = 0;
  testPercentiles();
  testOpenLoop();
  testBlocks();
  testSelfTime();
  testErrorRate();
  return Failures;
}

} // namespace pb
