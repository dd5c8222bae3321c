// Piecewise Aggregate Approximation (PAA) and resampling.
//
// FastDTW's coarsening step is PAA with a reduction factor of exactly two;
// HalveByTwo reproduces the reference implementation's semantics (pairs are
// averaged, a trailing odd element is dropped), which matters because the
// Appendix-A adversarial construction exploits precisely this step.

#ifndef WARP_TS_PAA_H_
#define WARP_TS_PAA_H_

#include <cstddef>
#include <span>
#include <vector>

namespace warp {

// General PAA: aggregates `values` into `num_segments` equal-width segments
// (fractional boundaries handled by proportional weighting, so the result
// is exact for any n and num_segments <= n).
std::vector<double> Paa(std::span<const double> values, size_t num_segments);

// FastDTW's reduce-by-half: out[i] = (in[2i] + in[2i+1]) / 2 for
// i in [0, floor(n/2)). Matches the published reference implementation.
std::vector<double> HalveByTwo(std::span<const double> values);

// Linear-interpolation resampling to `new_length` points, preserving the
// first and last samples. Used by generators, not by FastDTW itself.
std::vector<double> ResampleLinear(std::span<const double> values,
                                   size_t new_length);

}  // namespace warp

#endif  // WARP_TS_PAA_H_
