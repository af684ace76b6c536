// abl_batch_decode — ablation A15: batched LLM serving.
//
// A5/A7 showed single-sequence decode is movement- and
// utilization-starved.  Serving systems batch many sequences: the
// weight GEMVs fuse into (batch × d) GEMMs that re-amortize weight
// traffic and refill the DDot rows, while per-sequence KV streaming
// stays.  This bench sweeps the batch size and reports how much of the
// prefill-class P-DAC saving batching recovers — per token, the number
// a serving deployment cares about.
#include <cstdio>

#include "arch/accelerator.hpp"
#include "common/table.hpp"
#include "nn/decode_trace.hpp"
#include "nn/model_config.hpp"

int main() {
  using namespace pdac;
  const auto model = nn::bert_base(128);
  arch::AcceleratorConfig cfg;
  cfg.memory.hbm_bandwidth_gb_s = 1024.0;
  const arch::Accelerator acc(cfg);
  const std::size_t ctx = 512;

  std::printf("Ablation A15 — batched decode (ctx=%zu, 8-bit, 1 TB/s HBM)\n\n", ctx);

  Table t({"batch", "E/token DAC", "E/token P-DAC", "saving", "DDot util",
           "tokens/s"});
  for (std::size_t batch : {1u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const auto trace = nn::trace_decode_step(model, ctx, batch);
    const auto rep = acc.run(trace);
    const double per_token = 1.0 / static_cast<double>(batch);
    t.add_row(
        {std::to_string(batch),
         Table::millijoules(rep.energy.baseline.total().total().joules() * per_token, 4),
         Table::millijoules(rep.energy.pdac.total().total().joules() * per_token, 4),
         Table::pct(rep.energy.total_saving()),
         Table::pct(rep.schedule.ddot_utilization()),
         Table::num(rep.throughput(acc.config().organization) * static_cast<double>(batch),
                    0)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf(
      "\nBatching restores weight reuse (batch MACs per weight) and fills the\n"
      "DDot rows, so energy per token collapses and the P-DAC saving climbs\n"
      "from the single-stream ~4%% back toward the prefill-class 30%%+.  The\n"
      "KV-cache streaming term is per-sequence and does not amortize, which\n"
      "is what caps the recovery at large batch.\n");
  return 0;
}
