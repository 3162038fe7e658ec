// The paper's benign ALU: a 192-bit datapath with an embedded ripple-carry
// adder plus bitwise logic ops behind an op-select mux. Only the 192
// result bits are registered — those registers' D pins are the path
// endpoints misused as sensor bits.
#pragma once

#include <cstdint>

#include "common/bitvec.hpp"
#include "netlist/generators/adder.hpp"
#include "netlist/netlist.hpp"

namespace slm::netlist {

/// ALU operation encoding on the op[1:0] inputs.
enum class AluOp : std::uint8_t { kAdd = 0, kAnd = 1, kOr = 2, kXor = 3 };

struct AluOptions {
  std::size_t width = 192;
  AdderOptions adder;  ///< width is overridden by `width`
  double mux_delay_ns = 0.070;
  double logic_delay_ns = 0.060;

  bool operator==(const AluOptions&) const = default;
};

/// Build the ALU. Inputs: a[0..w-1], b[0..w-1], op0, op1.
/// Outputs: result[0..w-1], cout.
Netlist make_alu(const AluOptions& opt);

/// Pack ALU inputs (operands as BitVecs of ALU width).
BitVec pack_alu_inputs(const AluOptions& opt, const BitVec& a, const BitVec& b,
                       AluOp op);

/// Reference result of the ALU function (for functional tests).
BitVec alu_reference(const AluOptions& opt, const BitVec& a, const BitVec& b,
                     AluOp op, bool* cout = nullptr);

/// The paper's measure stimulus: A = 2^w - 1, B = 1, op = ADD. Together
/// with the all-zero reset stimulus this launches the full carry chain.
BitVec alu_measure_stimulus(const AluOptions& opt);
BitVec alu_reset_stimulus(const AluOptions& opt);

}  // namespace slm::netlist
