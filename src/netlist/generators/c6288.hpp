// Structural recreation of the ISCAS-85 C6288 benchmark: a 16x16 Braun
// array multiplier built from AND partial products and NOR-only half/full
// adder cells (240 adder cells, ~2.4k gates), as reverse-engineered by
// Hansen, Yalcin & Hayes. The original's long diagonal carry chains give
// the 32 product outputs a wide arrival-time spread — exactly why the
// paper picks it as the second benign sensor circuit.
#pragma once

#include <cstdint>

#include "common/bitvec.hpp"
#include "netlist/netlist.hpp"

namespace slm::netlist {

struct C6288Options {
  std::size_t operand_width = 16;  ///< 16 reproduces C6288; others for tests

  /// NOR cell delay (ns). The default is tuned so the multiplier closes
  /// timing at the paper's 50 MHz synthesis clock but misses it badly at
  /// the 300 MHz overclock.
  double nor_delay_ns = 0.040;

  /// AND partial-product gate delay (ns).
  double and_delay_ns = 0.050;

  /// Input routing delay (ns).
  double input_routing_delay_ns = 0.30;

  bool operator==(const C6288Options&) const = default;
};

/// Build the multiplier. Inputs: a[0..n-1], b[0..n-1].
/// Outputs: p[0..2n-1].
Netlist make_c6288(const C6288Options& opt);

/// Pack operand values (n <= 64 each).
BitVec pack_c6288_inputs(const C6288Options& opt, std::uint64_t a,
                         std::uint64_t b);

/// Reference product (for functional tests; requires n <= 32).
std::uint64_t c6288_reference(const C6288Options& opt, std::uint64_t a,
                              std::uint64_t b);

/// Paper stimulus: reset = 0 x 0, measure = all-ones x all-ones, which
/// drives activity through every diagonal of the array.
BitVec c6288_measure_stimulus(const C6288Options& opt);
BitVec c6288_reset_stimulus(const C6288Options& opt);

}  // namespace slm::netlist
