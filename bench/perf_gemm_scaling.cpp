// perf_gemm_scaling — wall-clock scaling of the tile-parallel GEMM
// execution engine (DESIGN.md §9), the start of the perf trajectory.
//
// Runs the full-optics photonic GEMM at a sweep of thread counts and
// matrix shapes, verifies every parallel result is BIT-identical to the
// serial baseline, and writes machine-readable BENCH_gemm.json
// (threads × shape × wall-time × speedup) so CI can archive a perf point
// per build.  Per shape, the thread counts are timed round-robin after
// one warmup round, and each reports its median.
//
// Usage (bench/harness.hpp):
//   perf_gemm_scaling            # full shapes (256³ and 768³)
//   perf_gemm_scaling --smoke    # tiny shapes for CI smoke coverage
//   perf_gemm_scaling --out FILE # JSON destination (default:
//                                # BENCH_gemm.json in the repository root)
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace pdac;

  const bench::Args args = bench::parse_args(argc, argv, "BENCH_gemm.json");

  // Smoke shapes must still be large enough that the parallel dispatch
  // amortizes its fork/join cost — at the old 24³-class shapes the
  // threads=2 point sat inside scheduler noise and flaked below 1x on
  // CI.  ~100³ keeps the smoke run in the hundreds of milliseconds while
  // giving every worker dozens of tiles.  One ragged shape stays in the
  // sweep so smoke coverage still crosses partial-tile edges.
  struct Shape {
    std::size_t m, k, n;
  };
  const std::vector<Shape> shapes = args.smoke
                                        ? std::vector<Shape>{{96, 128, 96}, {161, 160, 157}}
                                        : std::vector<Shape>{{256, 256, 256}, {768, 768, 768}};
  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  const std::size_t warmup = 1;
  const std::size_t reps = args.smoke ? 5 : 3;

  std::printf("perf_gemm_scaling — tile-parallel GEMM engine, %s mode\n",
              args.smoke ? "smoke" : "full");
  std::printf("hardware concurrency: %u\n\n", std::thread::hardware_concurrency());

  const auto drv = core::make_pdac_driver(8);
  bench::Json json;
  json.field("bench", "gemm_scaling").field("mode", args.smoke ? "smoke" : "full");
  json.field("hardware_concurrency", std::thread::hardware_concurrency());
  json.object("timing").field("warmup", warmup).field("reps", reps);
  json.field("order", "interleaved").field("statistic", "median").end();
  json.array("results");
  bool all_identical = true;

  for (const Shape& s : shapes) {
    Rng rng(42);
    const Matrix a = Matrix::random_gaussian(s.m, s.k, rng);
    const Matrix b = Matrix::random_gaussian(s.k, s.n, rng);

    std::vector<std::unique_ptr<ptc::PhotonicGemm>> gemms;
    for (const std::size_t threads : thread_counts) {
      ptc::GemmConfig cfg;
      cfg.dot.use_full_optics = true;
      // This bench measures tile-parallel *dispatch* scaling, so it pins
      // the device-graph execution path: the fused kernel (DESIGN.md §13,
      // perf_kernel) makes the smoke shapes so cheap that fork/join
      // overhead swamps the thread sweep, and keeping the historical
      // per-tile cost keeps the BENCH_gemm.json trajectory comparable.
      cfg.path = ptc::ExecutionPath::kDeviceGraph;
      cfg.threads = threads;
      gemms.push_back(std::make_unique<ptc::PhotonicGemm>(*drv, cfg));
    }
    std::vector<Matrix> out(gemms.size());
    const auto ms = bench::sample_round_robin(gemms.size(), warmup, reps, [&](std::size_t c) {
      out[c] = gemms[c]->multiply(a, b).c;
    });

    const double base_ms = bench::spread_of(ms[0]).median;
    Table t({"threads", "wall ms", "speedup", "bit-identical"});
    for (std::size_t c = 0; c < gemms.size(); ++c) {
      const bench::Spread wall = bench::spread_of(ms[c]);
      const bool identical = bench::bit_identical(out[c], out[0]);
      all_identical = all_identical && identical;
      json.object().field("m", s.m).field("k", s.k).field("n", s.n);
      json.field("threads", thread_counts[c]).field("wall_ms", wall.median);
      json.field("wall_ms_spread", wall).field("speedup", base_ms / wall.median);
      json.field("bit_identical", identical).end();
      t.add_row({std::to_string(thread_counts[c]), Table::num(wall.median, 2),
                 Table::num(base_ms / wall.median, 2) + "x", identical ? "yes" : "NO"});
    }
    std::printf("GEMM %zux%zux%zu (full optics, 8-bit P-DAC)\n%s\n", s.m, s.k, s.n,
                t.to_string().c_str());
  }
  if (!json.write(args.out)) return 1;

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: a parallel result diverged from the serial baseline\n");
    return 1;
  }
  return 0;
}
