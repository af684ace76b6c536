// Tests for the accelerator configuration parser.
#include <gtest/gtest.h>

#include "arch/config_parser.hpp"
#include "common/require.hpp"

namespace {

using namespace pdac;
using namespace pdac::arch;

TEST(ConfigParser, EmptyTextYieldsDefaults) {
  const auto cfg = parse_accelerator_config("");
  const AcceleratorConfig def;
  EXPECT_EQ(cfg.organization.clusters, def.organization.clusters);
  EXPECT_EQ(cfg.bits, def.bits);
  EXPECT_DOUBLE_EQ(cfg.memory.hbm_bandwidth_gb_s, def.memory.hbm_bandwidth_gb_s);
}

TEST(ConfigParser, ParsesFullConfig) {
  const auto cfg = parse_accelerator_config(R"(
# custom organization
[organization]
clusters = 4
cores_per_cluster = 2
array_rows = 16
array_cols = 4
wavelengths = 12
ddots_per_adc = 4
clock_ghz = 2.5
[memory]
hbm_gb_s = 1024
sram_gb_s = 8192   ; on-chip
[system]
bits = 6
)");
  EXPECT_EQ(cfg.organization.clusters, 4u);
  EXPECT_EQ(cfg.organization.cores_per_cluster, 2u);
  EXPECT_EQ(cfg.organization.array_rows, 16u);
  EXPECT_EQ(cfg.organization.array_cols, 4u);
  EXPECT_EQ(cfg.organization.wavelengths, 12u);
  EXPECT_EQ(cfg.organization.ddots_per_adc, 4u);
  EXPECT_NEAR(cfg.organization.clock.gigahertz(), 2.5, 1e-12);
  EXPECT_DOUBLE_EQ(cfg.memory.hbm_bandwidth_gb_s, 1024.0);
  EXPECT_DOUBLE_EQ(cfg.memory.sram_bandwidth_gb_s, 8192.0);
  EXPECT_EQ(cfg.bits, 6);
}

TEST(ConfigParser, ParsedConfigDrivesAccelerator) {
  const auto cfg = parse_accelerator_config("[system]\nbits = 4\n");
  const Accelerator acc(cfg);
  EXPECT_NEAR(acc.power(SystemVariant::kPdacBased).total().watts(), 11.81, 0.03);
}

TEST(ConfigParser, UnknownKeyIsAnError) {
  EXPECT_THROW((void)parse_accelerator_config("[organization]\nclusterz = 2\n"),
               PreconditionError);
  EXPECT_THROW((void)parse_accelerator_config("[memory]\nhbm = 2\n"), PreconditionError);
}

TEST(ConfigParser, UnknownSectionIsAnError) {
  EXPECT_THROW((void)parse_accelerator_config("[organisation]\nclusters = 2\n"),
               PreconditionError);
}

TEST(ConfigParser, KeyOutsideSectionIsAnError) {
  EXPECT_THROW((void)parse_accelerator_config("clusters = 2\n"), PreconditionError);
}

TEST(ConfigParser, MalformedValuesRejected) {
  EXPECT_THROW((void)parse_accelerator_config("[organization]\nclusters = two\n"),
               PreconditionError);
  EXPECT_THROW((void)parse_accelerator_config("[organization]\nclusters = 2.5\n"),
               PreconditionError);
  EXPECT_THROW((void)parse_accelerator_config("[organization]\nclusters = 0\n"),
               PreconditionError);
  EXPECT_THROW((void)parse_accelerator_config("[system]\nbits = 40\n"), PreconditionError);
  EXPECT_THROW((void)parse_accelerator_config("[organization\nclusters = 2\n"),
               PreconditionError);
  EXPECT_THROW((void)parse_accelerator_config("[organization]\nclusters 2\n"),
               PreconditionError);
}

TEST(ConfigParser, ErrorsCarryLineNumbers) {
  try {
    (void)parse_accelerator_config("[organization]\n\nclusters = x\n");
    FAIL() << "expected a throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

}  // namespace
