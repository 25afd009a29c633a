//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
///
/// \file
/// perfbench --workload <jit_spec|aot_large|uir_service> --seed N
///           --seconds S --trace <0|1> [--uir-rate R --uir-ladder r1,r2,..
///           --uir-limit-us L] [--trace-out FILE]
/// perfbench --self-test
///
/// An untraced run (--trace 0) prints every end-to-end metric; a traced
/// run (--trace 1, made by the perfbench_traced build of this file) prints
/// every per-layer metric. Each line is
/// "name = value unit"; the last line of stdout is one JSON object with
/// the keys correct, attempted, failed and metrics. A wrong output makes
/// the run exit with status 1. README.md explains the metrics.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/AllocCounter.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>

// Counting allocations replaces the global operator new with one that adds
// to two shared atomics on every call, on every thread. Only the traced
// binary (perfbench_traced) does so; the untraced end-to-end numbers come
// from perfbench, which keeps the library's own allocation path.
#ifdef PERFBENCH_COUNT_ALLOCS
TPDE_INSTALL_ALLOC_COUNTER
constexpr bool CountsAllocs = true;
#else
constexpr bool CountsAllocs = false;
#endif

namespace {

using namespace pb;

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics, in the order BENCHMARK.json lists them. Every
/// workload reports each one.
constexpr MetricDef EndToEnd[] = {
    {"setup_s", "s"},          {"latency_p50_us", "us"},
    {"latency_tail_us", "us"}, {"throughput_fps", "1/s"},
    {"goodput_jps", "1/s"},    {"ok_rate", "ratio"},
    {"code_bytes", "bytes"},   {"exec_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics. A layer a workload does not exercise reads 0.
constexpr MetricDef PerLayer[] = {
    {"bench.request_us", "us"},
    {"bench.trace_overhead", "ratio"},
    {"bench.late_p99_us", "us"},
    {"tir.verify_us", "us"},
    {"tir.verify_share", "ratio"},
    {"tpde_tir.compile_us", "us"},
    {"tpde_tir.compile_share", "ratio"},
    {"tpde_tir.prepare_us", "us"},
    {"core.analyze_us", "us"},
    {"core.codegen_us", "us"},
    {"share.prepare", "ratio"},
    {"share.analyze", "ratio"},
    {"share.codegen", "ratio"},
    {"core.shard_compile_us.x64", "us"},
    {"core.reserve_us.x64", "us"},
    {"core.place_us.x64", "us"},
    {"core.stitch_us.x64", "us"},
    {"core.driver_wait_us.x64", "us"},
    {"core.shard_compile_share.x64", "ratio"},
    {"core.reserve_share.x64", "ratio"},
    {"core.place_share.x64", "ratio"},
    {"core.stitch_share.x64", "ratio"},
    {"core.driver_wait_share.x64", "ratio"},
    {"core.stitch_relocs.x64", "count"},
    {"core.placed_bytes.x64", "bytes"},
    {"core.shard_compile_us.a64", "us"},
    {"core.reserve_us.a64", "us"},
    {"core.place_us.a64", "us"},
    {"core.stitch_us.a64", "us"},
    {"core.driver_wait_us.a64", "us"},
    {"core.shard_compile_share.a64", "ratio"},
    {"core.reserve_share.a64", "ratio"},
    {"core.place_share.a64", "ratio"},
    {"core.stitch_share.a64", "ratio"},
    {"core.driver_wait_share.a64", "ratio"},
    {"core.stitch_relocs.a64", "count"},
    {"core.placed_bytes.a64", "bytes"},
    {"asmx.map_us", "us"},
    {"asmx.map_share", "ratio"},
    {"asmx.symbols", "count"},
    {"asmx.relocs", "count"},
    {"asmx.elf_write_us.x64", "us"},
    {"asmx.elf_write_share.x64", "ratio"},
    {"asmx.elf_write_us.a64", "us"},
    {"asmx.elf_write_share.a64", "ratio"},
    {"service.submit_us", "us"},
    {"service.submit_share", "ratio"},
    {"service.wait_us", "us"},
    {"service.queue_wait_p50_us", "us"},
    {"service.queue_wait_p99_us", "us"},
    {"service.hit_ratio", "ratio"},
    {"service.max_rate_jps", "1/s"},
    {"service.coalesced", "count"},
    {"service.evictions", "count"},
    {"service.retried", "count"},
    {"service.shed", "count"},
    {"uir.verify_us", "us"},
    {"uir.fingerprint_us", "us"},
    {"uir.compile_us", "us"},
    {"support.allocs_per_func", "count"},
    {"support.alloc_bytes_per_func", "bytes"},
    {"exec.call_us", "us"},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--uir-rate R --uir-ladder r1,r2,.. "
               "--uir-limit-us L] [--trace-out FILE] | --self-test\n",
               Why);
  std::exit(2);
}

double number(const char *S, const char *What) {
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (!End || *End || !std::isfinite(V) || V < 0)
    usage((std::string("bad value for ") + What).c_str());
  return V;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool SelfTestOnly = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--self-test") {
      SelfTestOnly = true;
      continue;
    }
    if (I + 1 >= argc)
      usage(("missing value for " + A).c_str());
    const char *V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed") {
      char *End = nullptr;
      O.Seed = std::strtoull(V, &End, 10);
      if (!End || *End || *V == '-' || *V == '\0')
        usage("bad value for --seed");
    }
    else if (A == "--seconds")
      O.Seconds = number(V, "--seconds");
    else if (A == "--trace")
      O.Trace = number(V, "--trace") != 0;
    else if (A == "--uir-rate")
      O.UirRate = number(V, "--uir-rate");
    else if (A == "--uir-limit-us")
      O.UirLimitUs = number(V, "--uir-limit-us");
    else if (A == "--trace-out")
      O.TraceOut = V;
    else if (A == "--uir-ladder") {
      std::string L = V;
      for (size_t P = 0; P < L.size();) {
        size_t C = L.find(',', P);
        std::string Item = L.substr(P, C == std::string::npos ? C : C - P);
        O.UirLadder.push_back(number(Item.c_str(), "--uir-ladder"));
        P = C == std::string::npos ? L.size() : C + 1;
      }
    } else
      usage(("unknown option " + A).c_str());
  }

  // The benchmark's own logic is checked on every run; a broken percentile
  // or self-time rule must not produce numbers.
  if (int Failures = runSelfTests()) {
    std::fprintf(stderr, "perfbench: %d self-test failure(s)\n", Failures);
    return 1;
  }
  if (SelfTestOnly) {
    std::printf("perfbench: self-tests passed\n");
    return 0;
  }
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  if (O.Trace && !CountsAllocs)
    usage("--trace 1 needs perfbench_traced, which counts allocations");

  Result R;
  if (O.Workload == "jit_spec")
    R = runJitSpec(O);
  else if (O.Workload == "aot_large")
    R = runAotLarge(O);
  else if (O.Workload == "uir_service") {
    if (O.UirRate <= 0 || O.UirLadder.empty() || O.UirLimitUs <= 0)
      usage("uir_service needs --uir-rate, --uir-ladder and --uir-limit-us");
    R = runUirService(O);
  } else
    usage("unknown --workload");

  std::map<std::string, double> Got;
  for (const Metric &M : R.Metrics)
    Got[M.Name] = M.Value;
  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());
  if (R.Mismatches)
    std::printf("# %llu mismatch(es) in all\n",
                static_cast<unsigned long long>(R.Mismatches));
  std::string Json;
  char Buf[256];
  bool Complete = true;
  for (const MetricDef &D : O.Trace ? std::span<const MetricDef>(PerLayer)
                                    : std::span<const MetricDef>(EndToEnd)) {
    auto It = Got.find(D.Name);
    double V = It == Got.end() ? 0.0 : It->second;
    if (!std::isfinite(V)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", D.Name);
      V = 0, Complete = false;
    }
    if (It == Got.end() && !O.Trace) {
      std::fprintf(stderr, "perfbench: workload did not report %s\n", D.Name);
      Complete = false;
    }
    std::printf("%-30s = %.6g %s\n", D.Name, V, D.Unit);
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  Json.empty() ? "" : ", ", D.Name, V, D.Unit);
    Json += Buf;
  }
  // A run that failed before its first request (in setup) counts as one
  // failed attempt.
  if (R.Out.Attempted == 0)
    R.Out.refused();
  const auto Attempted = static_cast<unsigned long long>(R.Out.Attempted);
  const auto Failed = static_cast<unsigned long long>(R.Out.failed());
  std::printf("%-30s = %.6g ratio (%llu of %llu requests)\n", "error_rate",
              R.Out.errorRate(), Failed, Attempted);
  bool Correct = R.Correct && R.Out.Wrong == 0 && Complete;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false", Attempted, Failed, Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
