// Ripple-carry adder generator. The 192-bit instance inside the paper's
// ALU is the canonical "benign sensor" circuit: the carry chain gives a
// long, evenly-spaced arrival-time staircase over the sum endpoints, which
// is what makes the overclocked capture behave like a TDC.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "netlist/netlist.hpp"

namespace slm::netlist {

struct AdderOptions {
  std::size_t width = 192;

  /// Per-stage delay of the carry path (ns). FPGA dedicated carry chains
  /// are very fast (~15-20 ps/bit); generic LUT logic is ~120 ps/bit.
  /// The default models a mapped carry chain, which is what Vivado infers
  /// for a wide adder and what makes ~40% of a 192-bit adder's endpoints
  /// land inside the voltage-sensitivity band at 300 MHz.
  double carry_stage_delay_ns = 0.019;

  /// Delay of the sum XOR (LUT) per bit (ns).
  double sum_xor_delay_ns = 0.080;

  /// Delay from the primary inputs to the start of the chain (ns) —
  /// models input routing/fanout buffering.
  double input_routing_delay_ns = 0.45;

  bool with_carry_in = true;
  bool with_carry_out = true;

  bool operator==(const AdderOptions&) const = default;
};

/// Build an adder netlist. Inputs (declaration order): a[0..w-1],
/// b[0..w-1], then cin if enabled. Outputs: sum[0..w-1], then cout.
Netlist make_ripple_carry_adder(const AdderOptions& opt);

/// Pack operand values into the adder's input vector. Operands are given
/// as BitVecs of the adder width.
BitVec pack_adder_inputs(const AdderOptions& opt, const BitVec& a,
                         const BitVec& b, bool cin = false);

/// Convenience for widths <= 64.
BitVec pack_adder_inputs_u64(const AdderOptions& opt, std::uint64_t a,
                             std::uint64_t b, bool cin = false);

}  // namespace slm::netlist
