// Name-keyed registry of the library's elastic measures.
//
// One place maps a measure name ("cdtw", "msm", "fastdtw-ref", ...) to a
// ready-to-call SeriesMeasure closure, so the CLI, the bake-off bench,
// and any mining harness enumerate and construct measures from the same
// table instead of each hand-rolling an if/else chain. Parameters that
// the call sites historically disagreed on (band as a fraction vs. an
// explicit cell count, fixed omega vs. ratio-suggested omega) are all
// expressible in MeasureParams, so every existing behavior is
// reproducible bit-for-bit through the registry.
//
// The returned closures use a thread-local DtwWorkspace for their scratch
// rows, so steady-state calls (1-NN loops, pairwise matrices) do no heap
// allocation — see DtwWorkspace in warp/core/dp_engine.h.

#ifndef WARP_CORE_MEASURE_H_
#define WARP_CORE_MEASURE_H_

#include <string>
#include <vector>

#include "warp/common/cost.h"
#include "warp/core/distance_matrix.h"

namespace warp {

// Tuning knobs. Every field has the library's documented default; call
// sites override only what their flag surface exposes.
struct MeasureParams {
  // Sakoe–Chiba band for cdtw/ddtw/lcss (and wdtw unless full-band).
  // band_cells >= 0 wins; otherwise the band is
  // llround(window_fraction * max(n, m)) per pair — the same rounding as
  // CdtwDistanceFraction.
  double window_fraction = 0.1;
  long band_cells = -1;

  double wdtw_g = 0.05;        // logistic steepness.
  bool wdtw_full_band = false; // band = series length (classic WDTW).

  // ADTW penalty: adtw_omega >= 0 uses that fixed omega; otherwise omega
  // is suggested per pair as SuggestAdtwOmega(a, b, adtw_ratio).
  double adtw_omega = -1.0;
  double adtw_ratio = 0.1;

  double lcss_epsilon = 0.1;
  double erp_gap = 0.0;
  double msm_cost = 1.0;

  size_t fastdtw_radius = 10;  // fastdtw / fastdtw-ref.

  CostKind cost = CostKind::kSquared;
};

// The Sakoe–Chiba half-width `params` gives a pair of lengths n and m:
// band_cells when it is set, otherwise the same llround-of-fraction rule
// as CdtwDistanceFraction. Every banded closure and the serve cascade use
// this one rule.
size_t ResolveBand(const MeasureParams& params, size_t n, size_t m);

struct MeasureInfo {
  std::string name;     // Registry key, e.g. "cdtw".
  std::string summary;  // One-line description for --help output.
  bool exact = true;    // False for the FastDTW approximations.
};

// All registered measures, in canonical (display) order.
const std::vector<MeasureInfo>& RegisteredMeasures();

bool IsRegisteredMeasure(const std::string& name);

// "ed | cdtw | dtw | ..." — for CLI help text and error messages.
std::string RegisteredMeasureNames();

// Builds the distance closure for `name` with the given parameters.
// WARP_CHECKs that the name is registered; gate with IsRegisteredMeasure
// when the name comes from user input.
SeriesMeasure MakeMeasure(const std::string& name,
                          const MeasureParams& params = {});

// Empty when measure `name` under `params` can compare series of lengths
// `n` and `m`; otherwise the refusal, naming the measure and the broken
// rule. The rules are the ones the closures WARP_CHECK, so gate with this
// when lengths or params come from user input:
//   * ed and wdtw compare position by position, and adtw suggests its
//     omega from the Euclidean per-step cost unless `adtw_omega` is set,
//     so these need equal lengths;
//   * ddtw's derivative needs at least 3 points;
//   * lcss `lcss_epsilon`, msm `msm_cost` and a suggesting adtw's
//     `adtw_ratio` must not be negative.
std::string MeasureInputError(const std::string& name,
                              const MeasureParams& params, size_t n,
                              size_t m);

}  // namespace warp

#endif  // WARP_CORE_MEASURE_H_
