#include "eval/report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/table.hpp"

namespace pdac::eval {

std::string render_power_breakdown(const std::string& title,
                                   const arch::PowerBreakdown& breakdown) {
  Table t({"component", "power", "share", ""});
  const double total = breakdown.total().watts();
  for (const auto& part : breakdown.parts) {
    const double share = total > 0.0 ? part.power.watts() / total : 0.0;
    t.add_row({arch::to_string(part.component), Table::watts(part.power.watts()),
               Table::pct(share), ascii_bar(share, 24)});
  }
  t.add_rule();
  t.add_row({"total", Table::watts(total), Table::pct(1.0), ascii_bar(1.0, 24)});

  std::ostringstream os;
  os << "== " << title << " (" << arch::to_string(breakdown.variant) << ", "
     << breakdown.bits << "-bit) ==\n"
     << t.to_string();
  return os.str();
}

namespace {

void add_energy_rows(Table& t, const std::string& label, const arch::EnergyBreakdown& base,
                     const arch::EnergyBreakdown& pdac) {
  const double b = base.total().joules();
  const double p = pdac.total().joules();
  const double saving = b > 0.0 ? 1.0 - p / b : 0.0;
  t.add_row({label, Table::millijoules(b), Table::millijoules(p), Table::pct(saving)});
}

}  // namespace

std::string render_energy_comparison(const std::string& title,
                                     const arch::EnergyComparison& cmp) {
  Table t({"operation", "DAC-based", "P-DAC", "energy saving"});
  add_energy_rows(t, "attention", cmp.baseline.attention, cmp.pdac.attention);
  add_energy_rows(t, "ffn", cmp.baseline.ffn, cmp.pdac.ffn);
  if (cmp.baseline.conv.total().joules() > 0.0) {
    add_energy_rows(t, "conv", cmp.baseline.conv, cmp.pdac.conv);
  }
  add_energy_rows(t, "other", cmp.baseline.other, cmp.pdac.other);
  t.add_rule();
  add_energy_rows(t, "total", cmp.baseline.total(), cmp.pdac.total());

  Table parts({"term", "DAC-based", "P-DAC"});
  const auto& b = cmp.baseline;
  const auto& p = cmp.pdac;
  auto row = [&parts](const std::string& name, units::Energy eb, units::Energy ep) {
    parts.add_row({name, Table::millijoules(eb.joules()), Table::millijoules(ep.joules())});
  };
  row("modulation (DAC/ctrl vs P-DAC)", b.total().modulation, p.total().modulation);
  row("ADC readout", b.total().adc, p.total().adc);
  row("laser+thermal+receivers", b.total().static_power, p.total().static_power);
  row("SRAM data movement", b.total().movement, p.total().movement);
  row("digital vector unit", b.total().vector_unit, p.total().vector_unit);

  std::ostringstream os;
  os << "== " << title << " (" << cmp.baseline.bits << "-bit) ==\n"
     << t.to_string() << "per-term breakdown:\n"
     << parts.to_string();
  return os.str();
}

std::string render_scoreboard(const std::string& title, const std::vector<Scored>& rows,
                              const std::string& tolerance_note) {
  Table t({"metric", "paper", "measured", "delta"});
  for (const auto& r : rows) {
    const double delta = r.measured - r.paper;
    std::string signed_delta = delta >= 0 ? "+" : "";
    signed_delta += Table::num(delta, 2);
    signed_delta += r.unit;
    t.add_row({r.metric, Table::num(r.paper, 2) + r.unit, Table::num(r.measured, 2) + r.unit,
               signed_delta});
  }
  std::ostringstream os;
  os << "-- paper vs measured: " << title << " --\n" << t.to_string();
  if (!tolerance_note.empty()) os << tolerance_note << "\n";
  return os.str();
}

std::string render_fault_tolerance(const std::string& title,
                                   const std::vector<FaultRateRow>& rows) {
  Table t({"fault rate", "dead", "recovered", "throughput", "cosine", "", "recal energy",
           "detect lat"});
  for (const auto& r : rows) {
    t.add_row({Table::pct(r.fault_rate), std::to_string(r.lanes_dead),
               std::to_string(r.lanes_recovered), Table::pct(r.throughput_scale),
               Table::num(r.cosine_accuracy, 4),
               ascii_bar(std::max(0.0, r.cosine_accuracy), 24),
               Table::num(r.recal_energy_uj, 3) + " uJ",
               r.detect_latency_tiles < 0.0 ? "-"
                                            : Table::num(r.detect_latency_tiles, 1) + " tiles"});
  }
  std::ostringstream os;
  os << "== " << title << " ==\n" << t.to_string();
  return os.str();
}

std::string render_operand_cache(const std::string& title, const OperandCacheSummary& s) {
  const std::uint64_t lookups = s.hits + s.misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(s.hits) / static_cast<double>(lookups) : 0.0;
  const double occupancy = s.capacity_bytes > 0
                               ? static_cast<double>(s.resident_bytes) /
                                     static_cast<double>(s.capacity_bytes)
                               : 0.0;
  Table t({"counter", "value", ""});
  t.add_row({"lookups", std::to_string(lookups), ""});
  t.add_row({"hit rate", Table::pct(hit_rate), ascii_bar(hit_rate, 24)});
  t.add_row({"misses", std::to_string(s.misses), ""});
  t.add_row({"invalidations", std::to_string(s.invalidations), ""});
  t.add_row({"evictions", std::to_string(s.evictions), ""});
  t.add_row({"oversized rejects", std::to_string(s.oversized_rejects), ""});
  t.add_row({"entries", std::to_string(s.entries), ""});
  t.add_row({"resident", Table::num(static_cast<double>(s.resident_bytes) / (1024.0 * 1024.0), 1) +
                             " MiB / " +
                             Table::num(static_cast<double>(s.capacity_bytes) / (1024.0 * 1024.0), 1) +
                             " MiB",
             ascii_bar(std::min(occupancy, 1.0), 24)});
  std::ostringstream os;
  os << "== " << title << " ==\n" << t.to_string();
  return os.str();
}

std::string render_abft_guard(const std::string& title, const AbftGuardSummary& s) {
  const double mismatch_rate =
      s.tiles_checked > 0
          ? static_cast<double>(s.mismatched_tiles) / static_cast<double>(s.tiles_checked)
          : 0.0;
  const double guard_uj = s.checksum_energy_uj + s.retry_energy_uj;
  const double overhead =
      s.data_energy_uj > 0.0 ? guard_uj / s.data_energy_uj : 0.0;
  Table t({"counter", "value", ""});
  t.add_row({"products verified", std::to_string(s.products), ""});
  t.add_row({"tiles verified", std::to_string(s.tiles_checked), ""});
  t.add_row({"tile mismatch rate", Table::pct(mismatch_rate, 3),
             ascii_bar(std::min(mismatch_rate, 1.0), 24)});
  t.add_row({"detections (products)", std::to_string(s.detections), ""});
  t.add_row({"mean detect latency",
             s.detections > 0 ? Table::num(s.mean_detection_latency, 1) + " tiles" : "-", ""});
  t.add_row({"worst residual / band",
             Table::num(s.worst_residual, 3) + " / " + Table::num(s.worst_tolerance, 3), ""});
  t.add_rule();
  t.add_row({"retries", std::to_string(s.retries), ""});
  t.add_row({"re-trims (proactive)", std::to_string(s.retrims) + " (" +
                                         std::to_string(s.proactive_retrims) + ")",
             ""});
  t.add_row({"re-trims governed", std::to_string(s.governed_retrims), ""});
  t.add_row({"fences", std::to_string(s.fences), ""});
  t.add_row({"unrecovered", std::to_string(s.unrecovered), ""});
  t.add_row({"drift tiles absorbed", std::to_string(s.drift_tiles), ""});
  t.add_row({"worst drift ratio",
             s.drift_tiles > 0 ? Table::num(s.worst_drift_ratio, 2) + "x band" : "-", ""});
  t.add_rule();
  t.add_row({"checksum-lane energy", Table::num(s.checksum_energy_uj, 3) + " uJ", ""});
  t.add_row({"recovery re-run energy", Table::num(s.retry_energy_uj, 3) + " uJ", ""});
  t.add_row({"guard overhead vs data", Table::pct(overhead, 2),
             ascii_bar(std::min(overhead, 1.0), 24)});
  std::ostringstream os;
  os << "== " << title << " ==\n" << t.to_string();
  return os.str();
}

std::string render_serving(const std::string& title, const ServingSummary& s) {
  const auto share = [&](std::size_t part) {
    return s.requests > 0 ? static_cast<double>(part) / static_cast<double>(s.requests) : 0.0;
  };
  Table t({"counter", "value", ""});
  t.add_row({"requests", std::to_string(s.requests), ""});
  t.add_row({"completed", std::to_string(s.completed), ascii_bar(share(s.completed), 24)});
  t.add_row({"shed", std::to_string(s.shed), ascii_bar(share(s.shed), 24)});
  t.add_row({"failed", std::to_string(s.failed), ascii_bar(share(s.failed), 24)});
  t.add_row({"tokens (goodput)",
             std::to_string(s.tokens) + " (" + std::to_string(s.goodput_tokens) + ")", ""});
  t.add_row({"makespan", std::to_string(s.makespan_cycles) + " cyc", ""});
  t.add_rule();
  t.add_row({"token gap p50 / p99",
             Table::num(s.p50_token_gap, 1) + " / " + Table::num(s.p99_token_gap, 1) + " cyc",
             ""});
  t.add_row({"request latency p50 / p99",
             Table::num(s.p50_request_latency, 1) + " / " + Table::num(s.p99_request_latency, 1) +
                 " cyc",
             ""});
  t.add_row({"pool energy", Table::num(s.energy_uj, 3) + " uJ", ""});
  t.add_row({"goodput per joule", Table::num(s.goodput_per_joule, 1) + " tok/J", ""});
  t.add_row({"throttled products", std::to_string(s.throttled_products), ""});
  t.add_row({"quarantines / readmits",
             std::to_string(s.quarantines) + " / " + std::to_string(s.readmissions), ""});
  t.add_row({"canary probes", std::to_string(s.canary_probes), ""});
  std::ostringstream os;
  os << "== " << title << " ==\n" << t.to_string();
  if (!s.backends.empty()) {
    Table bt({"backend", "tokens", "products", "util", "health", "fences", "unrec", "drift",
              "state"});
    for (std::size_t i = 0; i < s.backends.size(); ++i) {
      const ServingBackendRow& row = s.backends[i];
      const std::string state = !row.alive        ? "offline"
                                : row.quarantined ? "quarantined"
                                                  : "alive";
      std::string slot = "#";
      slot += std::to_string(i);
      bt.add_row({slot, std::to_string(row.tokens),
                  std::to_string(row.products), Table::pct(row.utilization),
                  Table::num(row.final_health, 3), std::to_string(row.fences),
                  std::to_string(row.unrecovered),
                  std::to_string(row.drifting_lanes) + "/" +
                      std::to_string(row.excursion_lanes),
                  state});
    }
    os << bt.to_string();
  }
  return os.str();
}

std::string to_csv(const std::vector<std::string>& header,
                   const std::vector<std::vector<double>>& rows) {
  std::ostringstream os;
  for (std::size_t i = 0; i < header.size(); ++i) {
    os << header[i] << (i + 1 < header.size() ? "," : "\n");
  }
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << row[i] << (i + 1 < row.size() ? "," : "\n");
    }
  }
  return os.str();
}

}  // namespace pdac::eval
