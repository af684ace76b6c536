// Integration tests: full chains across subsystems.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/energy_model.hpp"
#include "common/stats.hpp"
#include "converters/eo_interface.hpp"
#include "core/pdac.hpp"
#include "nn/backend.hpp"
#include "nn/model_config.hpp"
#include "nn/transformer.hpp"
#include "photonics/laser.hpp"
#include "photonics/wdm_bus.hpp"
#include "ptc/ddot.hpp"
#include "ptc/event_counter.hpp"

namespace {

using namespace pdac;

// --- chain 1: SRAM word → EO → WDM link → P-DAC → MZM → DDot ----------------
TEST(Integration, FullOpticalDatapathComputesDotProduct) {
  const int bits = 8;
  converters::EoInterfaceConfig ecfg;
  ecfg.bits = bits;
  const converters::MultiBitEoInterface eo(ecfg);
  core::PdacConfig pcfg;
  pcfg.bits = bits;
  const core::Pdac pdac_dev(pcfg);
  const converters::Quantizer q(bits);
  const ptc::Ddot ddot;

  const std::vector<double> x{0.5, -0.3, 0.9, 0.1};
  const std::vector<double> y{-0.2, 0.8, 0.4, -0.6};

  // Modulate each operand channel through the complete chain:
  // value → code → optical digital word → P-DAC phase → MZM on carrier.
  photonics::LaserConfig lcfg;
  lcfg.channels = 4;
  const photonics::Laser laser(lcfg);
  photonics::DualRail rails{laser.emit(), laser.emit()};
  photonics::Mzm mzm;
  for (std::size_t i = 0; i < x.size(); ++i) {
    rails.upper.set_amplitude(
        i, mzm.modulate_pushpull(rails.upper.amplitude(i),
                                 pdac_dev.drive_phase(eo.encode(q.encode(x[i])))));
    rails.lower.set_amplitude(
        i, mzm.modulate_pushpull(rails.lower.amplitude(i),
                                 pdac_dev.drive_phase(eo.encode(q.encode(y[i])))));
  }
  const double optical = ddot.compute(rails).value();

  double exact = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) exact += x[i] * y[i];
  // Bounded by the compounded P-DAC encode errors of both operands.
  EXPECT_NEAR(optical, exact, 0.18 * static_cast<double>(x.size()));
  EXPECT_LT(std::abs(optical - exact) / std::max(std::abs(exact), 0.1), 0.35);
}

// --- chain 2: WDM transport of optical digital words ------------------------
TEST(Integration, WdmBusCarriesDigitalWordsBetweenInterfaces) {
  // Four 8-bit words on four wavelengths, one bit-slot at a time, with
  // threshold regeneration at the P-DAC comparator.
  converters::EoInterfaceConfig ecfg;
  const converters::MultiBitEoInterface eo(ecfg);
  photonics::WdmBusConfig bcfg;
  bcfg.channels = 4;
  const photonics::WdmBus bus(bcfg);
  const std::vector<std::int32_t> codes{13, -77, 127, 0};
  const auto words = eo.encode_vector(codes);

  std::vector<converters::OpticalDigitalWord> received(4);
  for (auto& w : received) w.slots.resize(8);
  for (std::size_t slot = 0; slot < 8; ++slot) {
    std::vector<photonics::WdmField> sources;
    for (std::size_t lane = 0; lane < 4; ++lane) {
      photonics::WdmField f(4);
      f.set_amplitude(lane, words[lane].slots[slot].amplitude);
      sources.push_back(f);
    }
    const auto dropped = bus.demux(bus.mux(sources));
    for (std::size_t lane = 0; lane < 4; ++lane) {
      received[lane].slots[slot].amplitude = dropped[lane].amplitude(lane);
    }
  }
  for (std::size_t lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(eo.decode(received[lane]), codes[lane]) << "lane " << lane;
  }
}

// --- chain 3: transformer inference through the photonic core ---------------
TEST(Integration, TinyTransformerThroughPdacBackend) {
  const auto cfg = nn::tiny_transformer(8, 32, 4, 2);
  nn::Transformer model(cfg);
  model.init_random(3);
  const Matrix input = model.random_input(4);

  auto ref = nn::make_reference_backend();
  auto pd = nn::make_photonic_pdac_backend(8);
  const Matrix exact = model.forward(input, *ref);
  const Matrix approx = model.forward(input, *pd);
  const auto err = stats::compare(approx.data(), exact.data());
  EXPECT_GT(err.cosine, 0.98);
  EXPECT_LT(err.rel_frobenius, 0.25);
  EXPECT_GT(pd->events().modulation_events, 0u);
  EXPECT_EQ(pd->events().macs, ref->events().macs);
}

// --- chain 4: trace-driven energy agrees with backend-observed events -------
TEST(Integration, TraceEventsMatchFunctionalBackendEvents) {
  const auto cfg = nn::tiny_transformer(8, 32, 4, 1);
  nn::Transformer model(cfg);
  model.init_random(5);
  auto backend = nn::make_photonic_pdac_backend(8);
  (void)model.forward(model.random_input(6), *backend);

  // The tracer predicts the same MAC count the functional run performed.
  const auto trace = nn::trace_forward(cfg);
  EXPECT_EQ(backend->events().macs, trace.total_macs());
}

// --- chain 4b: one event ledger for the executors and the figures ----------
TEST(EventLedger, TinyTransformerForwardMatchesTraceUnderExecutorRule) {
  // The executors and the analytic model count through one ptc tile-step
  // rule and differ only in its two inputs.  Under the executors' inputs
  // (B broadcast, one ADC sample per output) the trace of the same model
  // on lt_base() geometry predicts every field the forward executed.
  const auto cfg = nn::tiny_transformer(16, 64, 4, 2);
  nn::Transformer model(cfg);
  model.init_random(7);
  auto backend = nn::make_photonic_pdac_backend(8);
  (void)model.forward(model.random_input(8), *backend);
  const ptc::EventCounter& executed = backend->events();

  const arch::LtConfig lt = arch::lt_base();
  ptc::EventCounter executor_rule;
  ptc::EventCounter analytic_rule;
  for (const nn::GemmOp& op : nn::trace_forward(cfg).gemms) {
    executor_rule += ptc::product_events(op.m, op.k, op.n,
                                         {lt.array_rows, lt.array_cols, lt.wavelengths},
                                         ptc::Residency::kBroadcast, ptc::kSamplePerOutput) *
                     op.repeats;
    analytic_rule += arch::analytic_events(op, lt);
  }
  EXPECT_EQ(executed.modulation_events, executor_rule.modulation_events);
  EXPECT_EQ(executed.adc_events, executor_rule.adc_events);
  EXPECT_EQ(executed.cycles, executor_rule.cycles);
  EXPECT_EQ(executed.ddot_ops, executor_rule.ddot_ops);
  EXPECT_EQ(executed.detection_events, executor_rule.detection_events);
  EXPECT_EQ(executed.macs, executor_rule.macs);
  EXPECT_EQ(executed.modulation_events, 409'600u);
  EXPECT_EQ(executed.adc_events, 22'528u);
  EXPECT_EQ(executed.cycles, 3'200u);
  EXPECT_EQ(executed.ddot_ops, 204'800u);
  EXPECT_EQ(executed.detection_events, 204'800u);
  EXPECT_EQ(executed.macs, 1'638'400u);

  // The gap the executors close when they take the analytic inputs (each
  // op's residency, ddots_per_adc chunks per ADC sample): the dynamic
  // Q·Kᵀ and A·V products convert both operands per DDot, and FFN-down's
  // 32-chunk reductions take one sample per 8-chunk window, four per
  // output.  Every other field already agrees.
  EXPECT_EQ(analytic_rule.modulation_events, 524'288u);
  EXPECT_EQ(analytic_rule.adc_events, 28'672u);
  EXPECT_EQ(analytic_rule.cycles, executed.cycles);
  EXPECT_EQ(analytic_rule.ddot_ops, executed.ddot_ops);
  EXPECT_EQ(analytic_rule.detection_events, executed.detection_events);
  EXPECT_EQ(analytic_rule.macs, executed.macs);
}

// --- chain 5: the paper's two headline numbers, end to end ------------------
TEST(Integration, HeadlinePowerAndEnergyNumbers) {
  const auto lt = arch::lt_base();
  const auto params = arch::lt_power_params();
  const auto base8 =
      arch::compute_power_breakdown(lt, params, 8, arch::SystemVariant::kDacBased);
  const auto prop8 =
      arch::compute_power_breakdown(lt, params, 8, arch::SystemVariant::kPdacBased);
  EXPECT_NEAR(1.0 - prop8.total() / base8.total(), 0.477, 0.005);  // Fig. 11

  const auto cmp =
      arch::compare_energy(nn::trace_forward(nn::bert_base(128)), lt, params, 8);
  EXPECT_NEAR(cmp.total_saving(), 0.323, 0.02);  // Fig. 9
}

}  // namespace
