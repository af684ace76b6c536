// pdac_perfbench — one run of one benchmark workload.
//
//   pdac_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-dir DIR] [--git-sha SHA]
//
// Prints notes, the metric table and the check verdicts, then one JSON
// line {"correct", "attempted", "failed", "metrics"} holding every metric
// the workload measured.  Exits 1 when a correctness check fails and 2
// on bad arguments.  perfbench/run.py builds this program and selects
// the metrics BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

#ifndef PDAC_PERFBENCH_BUILD_TYPE
#define PDAC_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pdac_perfbench --workload decode_bert_base|decode_long_context|"
               "serve_guarded_storm --seed N --seconds S --trace 0|1 [--trace-dir DIR] "
               "[--git-sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0)) return usage();

  using Runner = int (*)(const perfbench::Args&, perfbench::Report&);
  Runner run = nullptr;
  if (args.workload == "decode_bert_base") run = perfbench::run_decode_bert_base;
  if (args.workload == "decode_long_context") run = perfbench::run_decode_long_context;
  if (args.workload == "serve_guarded_storm") run = perfbench::run_serve_guarded_storm;
  if (run == nullptr) return usage();

  perfbench::Report rep;
  rep.note("host: nproc " + std::to_string(std::thread::hardware_concurrency()) +
           ", build " + PDAC_PERFBENCH_BUILD_TYPE + ", git " + args.git_sha + ", seed " +
           std::to_string(args.seed) + ", seconds " + std::to_string(args.seconds) +
           ", trace " + (args.trace ? "1" : "0"));
  try {
    if (run(args, rep) != 0) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdac_perfbench: %s\n", e.what());
    return 1;
  }
  rep.print();
  return rep.correct() ? 0 : 1;
}
