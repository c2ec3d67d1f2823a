// Fixed-point arithmetic for the deployable rescaling path.
//
// Torch2Chip stores every post-fusion scaling factor and bias as an integer
// in a user-selected INT(i, f) split: `i` integer bits (including sign) and
// `f` fractional bits, e.g. INT(12, 4) or INT(13, 3) in the paper's tables.
// A real value x is represented by round(x * 2^f) saturated to i+f bits.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace t2c {

/// A fixed-point format: total width = int_bits + frac_bits, two's
/// complement, so representable range is [-2^(w-1), 2^(w-1)-1] / 2^f.
/// The paper's INT16 "(12, 4)" setting is 12 fractional + 4 integer bits.
struct FixedPointFormat {
  int int_bits = 4;     ///< integer bits, sign included
  int frac_bits = 12;   ///< fractional bits

  int total_bits() const { return int_bits + frac_bits; }
  std::int64_t max_raw() const;
  std::int64_t min_raw() const;
  /// Smallest representable step (2^-f).
  double resolution() const;
};

/// Quantizes a real value to the raw integer representation (round-to-
/// nearest, saturating).
std::int64_t to_fixed(double x, const FixedPointFormat& fmt);

/// Recovers the real value represented by a raw fixed-point integer.
double from_fixed(std::int64_t raw, const FixedPointFormat& fmt);

/// Quantize-dequantize in one step: the nearest representable real value.
double fixed_round(double x, const FixedPointFormat& fmt);

/// Vector helpers used when folding per-channel scales / biases.
std::vector<std::int64_t> to_fixed(const std::vector<double>& xs,
                                   const FixedPointFormat& fmt);

/// Multiplies an int32 accumulator by a fixed-point raw multiplier and
/// shifts back down with round-to-nearest: (acc * m + 2^(f-1)) >> f.
/// This is exactly the datapath MulQuant implements in hardware.
std::int64_t fixed_mul_shift(std::int64_t acc, std::int64_t raw_mul,
                             int frac_bits);

/// |v| saturated at INT64_MAX. Negating INT64_MIN is undefined, so every
/// magnitude of a checkpoint-supplied integer goes through this.
constexpr std::int64_t abs_sat(std::int64_t v) {
  if (v == std::numeric_limits<std::int64_t>::min()) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return v < 0 ? -v : v;
}

}  // namespace t2c
