// Experiment E10 — supporting micro-benchmarks (google-benchmark).
//
// Kernel-level scaling of the DTW family: how Full DTW, cDTW, FastDTW,
// the lower bounds, and the envelope computation scale with N, w, and r.
// These are the numbers behind every macro experiment: cDTW_w costs
// O(N*w) with a tiny constant; FastDTW costs O(N*r) with a much larger
// constant (recursion, window bookkeeping, path recovery) — which is the
// paper's whole story.
//
// Accepts --json=<path> like every other bench binary; it is translated
// into google-benchmark's --benchmark_out/--benchmark_out_format pair, so
// collect_bench.py can treat all harnesses uniformly (this one emits the
// google-benchmark schema, not warp-bench-v1).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "warp/common/flags.h"
#include "warp/core/dtw.h"
#include "warp/core/envelope.h"
#include "warp/core/fastdtw.h"
#include "warp/core/fastdtw_reference.h"
#include "warp/core/lower_bounds.h"
#include "warp/gen/random_walk.h"
#include "warp/mining/matrix_profile.h"
#include "warp/simd/dispatch.h"

namespace warp {
namespace {

std::vector<double> MakeWalk(size_t n, uint64_t seed) {
  Rng rng(seed);
  return gen::RandomWalk(n, rng);
}

void BM_FullDtw(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = MakeWalk(n, 1);
  const auto y = MakeWalk(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtwDistance(x, y));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_FullDtw)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

// The SIMD A/B pairs (docs/SIMD.md): each vectorized kernel runs once
// under the process-wide --simd mode (auto unless overridden) and once
// pinned to the scalar path, so a single run reports the speedup. The
// *Scalar twins share the measurement body with their primaries.

void RunCdtw(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t w_percent = static_cast<size_t>(state.range(1));
  const auto x = MakeWalk(n, 3);
  const auto y = MakeWalk(n, 4);
  const size_t band = n * w_percent / 100;
  DtwBuffer buffer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CdtwDistance(x, y, band, CostKind::kSquared, &buffer));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * (2 * band + 1)));
}

void BM_Cdtw(benchmark::State& state) { RunCdtw(state); }
BENCHMARK(BM_Cdtw)
    ->Args({128, 5})
    ->Args({128, 10})
    ->Args({945, 4})
    ->Args({945, 20})
    ->Args({24000, 1});

void BM_CdtwScalar(benchmark::State& state) {
  simd::ScopedSimdMode scalar(simd::SimdMode::kOff);
  RunCdtw(state);
}
BENCHMARK(BM_CdtwScalar)->Args({945, 4})->Args({945, 20})->Args({24000, 1});

// The cascade's DP rung at serve's, classify's and long search's shapes
// (N, w%), against a bound of bound_percent of the pair's exact distance:
// 50 abandons, 200 runs to the end.
void RunCdtwAbandoning(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t w_percent = static_cast<size_t>(state.range(1));
  const double bound_percent = static_cast<double>(state.range(2));
  const auto x = MakeWalk(n, 3);
  const auto y = MakeWalk(n, 4);
  const size_t band = n * w_percent / 100;
  const double bound = CdtwDistance(x, y, band) * bound_percent / 100.0;
  DtwBuffer buffer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CdtwDistanceAbandoning(
        x, y, band, bound, CostKind::kSquared, &buffer));
  }
}

void AbandoningShapes(benchmark::internal::Benchmark* b) {
  const int64_t shapes[][2] = {{256, 5}, {315, 5}, {512, 10}};
  for (const auto& shape : shapes) {
    b->Args({shape[0], shape[1], 50})->Args({shape[0], shape[1], 200});
  }
}

void BM_CdtwAbandoning(benchmark::State& state) { RunCdtwAbandoning(state); }
BENCHMARK(BM_CdtwAbandoning)->Apply(AbandoningShapes);

void BM_CdtwAbandoningScalar(benchmark::State& state) {
  simd::ScopedSimdMode scalar(simd::SimdMode::kOff);
  RunCdtwAbandoning(state);
}
BENCHMARK(BM_CdtwAbandoningScalar)->Apply(AbandoningShapes);

void BM_FastDtw(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t radius = static_cast<size_t>(state.range(1));
  const auto x = MakeWalk(n, 5);
  const auto y = MakeWalk(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FastDtwDistance(x, y, radius));
  }
}
BENCHMARK(BM_FastDtw)
    ->Args({128, 10})
    ->Args({945, 0})
    ->Args({945, 10})
    ->Args({945, 20})
    ->Args({24000, 10});

void BM_ReferenceFastDtw(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t radius = static_cast<size_t>(state.range(1));
  const auto x = MakeWalk(n, 5);
  const auto y = MakeWalk(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReferenceFastDtw(x, y, radius).distance);
  }
}
BENCHMARK(BM_ReferenceFastDtw)->Args({128, 10})->Args({945, 10});

void BM_MatrixProfile(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto series = MakeWalk(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMatrixProfile(series, 64).profile[0]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) *
                          static_cast<int64_t>(n) / 2);
}
BENCHMARK(BM_MatrixProfile)->Arg(2000)->Arg(8000);

// Second arg is the band: narrow bands take the doubling SIMD sweep
// under --simd=auto, bands past kEnvelopeAutoMaxBand fall back to the
// deque (see docs/SIMD.md), so the pairs below cover both sides of the
// gate.
void RunEnvelope(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t band = static_cast<size_t>(state.range(1));
  const auto x = MakeWalk(n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeEnvelope(x, band));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_Envelope(benchmark::State& state) { RunEnvelope(state); }
BENCHMARK(BM_Envelope)
    ->Args({128, 12})
    ->Args({1024, 16})
    ->Args({1024, 102})
    ->Args({16384, 16})
    ->Args({16384, 1638});

void BM_EnvelopeScalar(benchmark::State& state) {
  simd::ScopedSimdMode scalar(simd::SimdMode::kOff);
  RunEnvelope(state);
}
BENCHMARK(BM_EnvelopeScalar)
    ->Args({1024, 16})
    ->Args({1024, 102})
    ->Args({16384, 16})
    ->Args({16384, 1638});

// `tight` clamps the candidate into the query tube — the cascade's
// surviving-candidate shape, where the SIMD block skip does all the
// work. The default independent walk wanders far outside the tube, so
// it exercises the dirty-streak bail instead (near-scalar cost).
void RunLbKeogh(benchmark::State& state, bool tight) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto q = MakeWalk(n, 8);
  auto c = MakeWalk(n, 9);
  const Envelope env = ComputeEnvelope(q, n / 20);
  if (tight) {
    for (size_t i = 0; i < n; ++i) {
      c[i] = std::clamp(c[i], env.lower[i], env.upper[i]);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(LbKeogh(env, c));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_LbKeogh(benchmark::State& state) { RunLbKeogh(state, false); }
BENCHMARK(BM_LbKeogh)->Arg(128)->Arg(1024)->Arg(16384);

void BM_LbKeoghScalar(benchmark::State& state) {
  simd::ScopedSimdMode scalar(simd::SimdMode::kOff);
  RunLbKeogh(state, false);
}
BENCHMARK(BM_LbKeoghScalar)->Arg(1024)->Arg(16384);

void BM_LbKeoghTight(benchmark::State& state) { RunLbKeogh(state, true); }
BENCHMARK(BM_LbKeoghTight)->Arg(1024)->Arg(16384);

void BM_LbKeoghTightScalar(benchmark::State& state) {
  simd::ScopedSimdMode scalar(simd::SimdMode::kOff);
  RunLbKeogh(state, true);
}
BENCHMARK(BM_LbKeoghTightScalar)->Arg(1024)->Arg(16384);

// The ratio the paper turns on: exact banded DTW vs FastDTW at matched
// "serviceable approximation" settings (w = 20%, r = 10; see Fig. 1).
void BM_HeadToHead_Cdtw20(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = MakeWalk(n, 10);
  const auto y = MakeWalk(n, 11);
  DtwBuffer buffer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CdtwDistance(x, y, n / 5, CostKind::kSquared, &buffer));
  }
}
BENCHMARK(BM_HeadToHead_Cdtw20)->Arg(128)->Arg(450)->Arg(945)->Arg(4000);

void BM_HeadToHead_FastDtw10(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = MakeWalk(n, 10);
  const auto y = MakeWalk(n, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FastDtwDistance(x, y, 10));
  }
}
BENCHMARK(BM_HeadToHead_FastDtw10)->Arg(128)->Arg(450)->Arg(945)->Arg(4000);

}  // namespace
}  // namespace warp

// Hand-rolled main instead of BENCHMARK_MAIN(): read --json=<path> and
// --simd=<mode> through warp::Flags, rewrite --json into the native output
// flags, and hand every other argument to google-benchmark's parser.
int main(int argc, char** argv) {
  warp::Flags flags(argc, argv);
  const std::string json_path = flags.GetString("json", "");
  warp::simd::SimdFlag(flags);
  std::vector<std::string> args = flags.TakeUnread();
  if (!json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> argv2 = {argv[0]};
  for (std::string& arg : args) argv2.push_back(arg.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
