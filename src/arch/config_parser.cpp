#include "arch/config_parser.hpp"

#include <cctype>
#include <sstream>

#include "common/require.hpp"

namespace pdac::arch {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void fail(int line, const std::string& msg) {
  throw PreconditionError("config line " + std::to_string(line) + ": " + msg);
}

double parse_number(const std::string& value, int line) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + value + "'");
  }
  if (used != value.size()) fail(line, "trailing junk after number: '" + value + "'");
  return v;
}

std::size_t parse_count(const std::string& value, int line) {
  const double v = parse_number(value, line);
  if (v < 1.0 || v != static_cast<double>(static_cast<std::size_t>(v))) {
    fail(line, "expected a positive integer, got '" + value + "'");
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

AcceleratorConfig parse_accelerator_config(const std::string& text) {
  AcceleratorConfig cfg;
  std::istringstream in(text);
  std::string raw;
  std::string section;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto comment = raw.find_first_of("#;");
    std::string line = trim(comment == std::string::npos ? raw : raw.substr(0, comment));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail(line_no, "unterminated section header");
      section = trim(line.substr(1, line.size() - 2));
      if (section != "organization" && section != "memory" && section != "system") {
        fail(line_no, "unknown section '" + section + "'");
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (section.empty()) fail(line_no, "key '" + key + "' outside any section");

    if (section == "organization") {
      if (key == "clusters") {
        cfg.organization.clusters = parse_count(value, line_no);
      } else if (key == "cores_per_cluster") {
        cfg.organization.cores_per_cluster = parse_count(value, line_no);
      } else if (key == "array_rows") {
        cfg.organization.array_rows = parse_count(value, line_no);
      } else if (key == "array_cols") {
        cfg.organization.array_cols = parse_count(value, line_no);
      } else if (key == "wavelengths") {
        cfg.organization.wavelengths = parse_count(value, line_no);
      } else if (key == "ddots_per_adc") {
        cfg.organization.ddots_per_adc = parse_count(value, line_no);
      } else if (key == "clock_ghz") {
        const double ghz = parse_number(value, line_no);
        if (ghz <= 0.0) fail(line_no, "clock must be positive");
        cfg.organization.clock = units::gigahertz(ghz);
      } else {
        fail(line_no, "unknown organization key '" + key + "'");
      }
    } else if (section == "memory") {
      if (key == "hbm_gb_s") {
        cfg.memory.hbm_bandwidth_gb_s = parse_number(value, line_no);
      } else if (key == "sram_gb_s") {
        cfg.memory.sram_bandwidth_gb_s = parse_number(value, line_no);
      } else {
        fail(line_no, "unknown memory key '" + key + "'");
      }
    } else {  // system
      if (key == "bits") {
        const double b = parse_number(value, line_no);
        if (b < 2 || b > 16) fail(line_no, "bits must be in [2, 16]");
        cfg.bits = static_cast<int>(b);
      } else {
        fail(line_no, "unknown system key '" + key + "'");
      }
    }
  }
  return cfg;
}

}  // namespace pdac::arch
