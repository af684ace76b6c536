// config_parser.hpp — textual configuration for Accelerator instances.
//
// Deployment studies sweep organizations from scripts; this loads an
// INI-style description into an AcceleratorConfig:
//
//   [organization]
//   clusters = 2
//   cores_per_cluster = 8
//   array_rows = 8
//   array_cols = 8
//   wavelengths = 8
//   ddots_per_adc = 8
//   clock_ghz = 5
//   [memory]
//   hbm_gb_s = 512
//   sram_gb_s = 4096
//   [system]
//   bits = 8
//
// Omitted keys keep their LT-B defaults.  Unknown sections or keys are
// errors (typos must not silently fall back to defaults); `#` and `;`
// start comments.
#pragma once

#include <string>

#include "arch/accelerator.hpp"

namespace pdac::arch {

/// Parse a configuration from text.  Throws PreconditionError with a
/// line-numbered message on malformed input, unknown keys, or
/// out-of-range values.
AcceleratorConfig parse_accelerator_config(const std::string& text);

}  // namespace pdac::arch
