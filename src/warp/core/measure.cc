#include "warp/core/measure.h"

#include <algorithm>

#include "warp/common/assert.h"
#include "warp/core/adtw.h"
#include "warp/core/ddtw.h"
#include "warp/core/dtw.h"
#include "warp/core/elastic.h"
#include "warp/core/fastdtw.h"
#include "warp/core/fastdtw_reference.h"
#include "warp/core/wdtw.h"

namespace warp {

size_t ResolveBand(const MeasureParams& p, size_t n, size_t m) {
  if (p.band_cells >= 0) return static_cast<size_t>(p.band_cells);
  return BandFromFraction(p.window_fraction, std::max(n, m));
}

namespace {

// Scratch rows shared by all closures on a given thread; reused across
// calls so steady-state distance evaluation never touches the heap.
DtwWorkspace& ThreadWorkspace() {
  static thread_local DtwWorkspace workspace;
  return workspace;
}

struct MeasureEntry {
  MeasureInfo info;
  SeriesMeasure (*make)(const MeasureParams&);
};

const std::vector<MeasureEntry>& Registry() {
  static const std::vector<MeasureEntry> entries = {
      {{"ed", "Euclidean distance (lock-step)", true},
       [](const MeasureParams& p) -> SeriesMeasure {
         return [p](std::span<const double> a, std::span<const double> b) {
           return EuclideanDistance(a, b, p.cost);
         };
       }},
      {{"cdtw", "DTW under a Sakoe-Chiba band", true},
       [](const MeasureParams& p) -> SeriesMeasure {
         return [p](std::span<const double> a, std::span<const double> b) {
           return CdtwDistance(a, b, ResolveBand(p, a.size(), b.size()),
                               p.cost, &ThreadWorkspace());
         };
       }},
      {{"dtw", "unconstrained (full) DTW", true},
       [](const MeasureParams& p) -> SeriesMeasure {
         return [p](std::span<const double> a, std::span<const double> b) {
           return DtwDistance(a, b, p.cost, nullptr, &ThreadWorkspace());
         };
       }},
      {{"ddtw", "derivative DTW under a band", true},
       [](const MeasureParams& p) -> SeriesMeasure {
         return [p](std::span<const double> a, std::span<const double> b) {
           return DdtwDistance(a, b, ResolveBand(p, a.size(), b.size()),
                               p.cost, &ThreadWorkspace());
         };
       }},
      {{"wdtw", "weighted DTW (logistic phase penalty)", true},
       [](const MeasureParams& p) -> SeriesMeasure {
         return [p](std::span<const double> a, std::span<const double> b) {
           const size_t band = p.wdtw_full_band
                                   ? a.size()
                                   : ResolveBand(p, a.size(), b.size());
           return WdtwDistance(a, b, p.wdtw_g, band, p.cost,
                               &ThreadWorkspace());
         };
       }},
      {{"adtw", "amerced DTW (additive warp penalty)", true},
       [](const MeasureParams& p) -> SeriesMeasure {
         return [p](std::span<const double> a, std::span<const double> b) {
           const double omega = p.adtw_omega >= 0.0
                                    ? p.adtw_omega
                                    : SuggestAdtwOmega(a, b, p.adtw_ratio,
                                                       p.cost);
           return AdtwDistance(a, b, omega, p.cost, &ThreadWorkspace());
         };
       }},
      {{"lcss", "longest common subsequence distance", true},
       [](const MeasureParams& p) -> SeriesMeasure {
         return [p](std::span<const double> a, std::span<const double> b) {
           return LcssDistance(a, b, p.lcss_epsilon,
                               ResolveBand(p, a.size(), b.size()),
                               &ThreadWorkspace());
         };
       }},
      {{"erp", "edit distance with real penalty", true},
       [](const MeasureParams& p) -> SeriesMeasure {
         return [p](std::span<const double> a, std::span<const double> b) {
           return ErpDistance(a, b, p.erp_gap, &ThreadWorkspace());
         };
       }},
      {{"msm", "move-split-merge distance", true},
       [](const MeasureParams& p) -> SeriesMeasure {
         return [p](std::span<const double> a, std::span<const double> b) {
           return MsmDistance(a, b, p.msm_cost, &ThreadWorkspace());
         };
       }},
      {{"fastdtw", "FastDTW approximation (optimized)", false},
       [](const MeasureParams& p) -> SeriesMeasure {
         return [p](std::span<const double> a, std::span<const double> b) {
           return FastDtwDistance(a, b, p.fastdtw_radius, p.cost);
         };
       }},
      {{"fastdtw-ref", "FastDTW approximation (reference port)", false},
       [](const MeasureParams& p) -> SeriesMeasure {
         return [p](std::span<const double> a, std::span<const double> b) {
           return ReferenceFastDtw(a, b, p.fastdtw_radius, p.cost).distance;
         };
       }},
  };
  return entries;
}

}  // namespace

const std::vector<MeasureInfo>& RegisteredMeasures() {
  static const std::vector<MeasureInfo> infos = [] {
    std::vector<MeasureInfo> result;
    result.reserve(Registry().size());
    for (const MeasureEntry& entry : Registry()) result.push_back(entry.info);
    return result;
  }();
  return infos;
}

bool IsRegisteredMeasure(const std::string& name) {
  for (const MeasureEntry& entry : Registry()) {
    if (entry.info.name == name) return true;
  }
  return false;
}

std::string RegisteredMeasureNames() {
  std::string names;
  for (const MeasureEntry& entry : Registry()) {
    if (!names.empty()) names += " | ";
    names += entry.info.name;
  }
  return names;
}

SeriesMeasure MakeMeasure(const std::string& name,
                          const MeasureParams& params) {
  for (const MeasureEntry& entry : Registry()) {
    if (entry.info.name == name) return entry.make(params);
  }
  WARP_CHECK_MSG(false, "unregistered measure name");
}

std::string MeasureInputError(const std::string& name,
                              const MeasureParams& params, size_t n,
                              size_t m) {
  const auto refuse = [&](const std::string& rule) {
    return "measure " + name + " requires " + rule;
  };
  const auto got = [&] {
    return ", got " + std::to_string(n) + " and " + std::to_string(m);
  };
  const bool suggests_omega = name == "adtw" && params.adtw_omega < 0.0;
  if (name == "lcss" && !(params.lcss_epsilon >= 0.0)) {
    return refuse("epsilon >= 0");
  }
  if (name == "msm" && !(params.msm_cost >= 0.0)) return refuse("c >= 0");
  if (suggests_omega && !(params.adtw_ratio >= 0.0)) {
    return refuse("ratio >= 0");
  }
  if (name == "ddtw" && std::min(n, m) < 3) {
    return refuse("at least 3 points" + got());
  }
  if ((name == "ed" || name == "wdtw" || suggests_omega) && n != m) {
    return refuse("equal lengths" + got());
  }
  return "";
}

}  // namespace warp
