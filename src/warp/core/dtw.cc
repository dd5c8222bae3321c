#include "warp/core/dtw.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "warp/common/assert.h"
#include "warp/core/dp_engine.h"
#include "warp/common/metrics.h"

namespace warp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Every DTW-family kernel below is a thin instantiation of the shared
// engine in dp_engine.h: a MinPlus recurrence over a row range, with the
// abandon hook composed in. The engine publishes this family's work
// through the kDtwCells / kDtwEarlyAbandons counters.

dp::EngineCounters DtwCounters(uint64_t* cells) {
  dp::EngineCounters counters;
  counters.cells = obs::Counter::kDtwCells;
  counters.abandons = obs::Counter::kDtwEarlyAbandons;
  counters.cells_out = cells;
  return counters;
}

template <typename CellCostFn>
double BandedDistance(size_t n, size_t m, size_t band, CellCostFn&& cell_cost,
                      double abandon_above, DtwWorkspace* workspace,
                      uint64_t* cells, const double* residual = nullptr) {
  return dp::BandedTwoRowEngine(
      n, m, band, dp::MinPlusPolicy<CellCostFn>{cell_cost}, abandon_above,
      workspace, DtwCounters(cells), residual);
}

}  // namespace

// ---------------------------------------------------------------------------
// Unconstrained DTW.

double DtwDistance(std::span<const double> x, std::span<const double> y,
                   CostKind cost, uint64_t* cells, DtwWorkspace* workspace) {
  // A band of max(n, m) spans every column.
  return CdtwDistance(x, y, std::max(x.size(), y.size()), cost, workspace,
                      cells);
}

DtwResult Dtw(std::span<const double> x, std::span<const double> y,
              CostKind cost) {
  return WindowedDtw(x, y, WarpingWindow::Full(x.size(), y.size()), cost);
}

// ---------------------------------------------------------------------------
// Sakoe–Chiba constrained DTW.

double CdtwDistance(std::span<const double> x, std::span<const double> y,
                    size_t band, CostKind cost, DtwWorkspace* buffer,
                    uint64_t* cells) {
  WARP_CHECK(!x.empty() && !y.empty());
  return WithCost(cost, [&](auto c) {
    return BandedDistance(
        x.size(), y.size(), band,
        dp::SeriesCellCost<decltype(c)>{x.data(), y.data(), c}, kInf, buffer,
        cells);
  });
}

size_t BandFromFraction(double fraction, size_t length) {
  return static_cast<size_t>(
      std::llround(fraction * static_cast<double>(length)));
}

double CdtwDistanceFraction(std::span<const double> x,
                            std::span<const double> y, double fraction,
                            CostKind cost, DtwWorkspace* buffer) {
  WARP_CHECK(fraction >= 0.0);
  return CdtwDistance(x, y,
                      BandFromFraction(fraction, std::max(x.size(), y.size())),
                      cost, buffer);
}

double CdtwDistanceAbandoning(std::span<const double> x,
                              std::span<const double> y, size_t band,
                              double abandon_above, CostKind cost,
                              DtwWorkspace* buffer,
                              const KeoghResidual* residual) {
  WARP_CHECK(!x.empty() && !y.empty());
  // The terms bound in-band costs only at their band and equal lengths.
  WARP_CHECK(residual == nullptr ||
             (x.size() == y.size() && residual->band == band &&
              residual->suffix.size() >= y.size() + simd::kWavePad));
  return WithCost(cost, [&](auto c) {
    return BandedDistance(
        x.size(), y.size(), band,
        dp::SeriesCellCost<decltype(c)>{x.data(), y.data(), c}, abandon_above,
        buffer, nullptr,
        residual != nullptr ? residual->suffix.data() : nullptr);
  });
}

DtwResult Cdtw(std::span<const double> x, std::span<const double> y,
               size_t band, CostKind cost) {
  return WindowedDtw(x, y, WarpingWindow::SakoeChiba(x.size(), y.size(), band),
                     cost);
}

// ---------------------------------------------------------------------------
// Arbitrary-window DTW.

DtwResult WindowedDtw(std::span<const double> x, std::span<const double> y,
                      const WarpingWindow& window, CostKind cost) {
  WARP_CHECK(!x.empty() && !y.empty());
  return WithCost(cost, [&](auto c) {
    dp::MaterializedResult dp_result = dp::MaterializedDp(
        x.size(), y.size(), window,
        dp::SeriesCellCost<decltype(c)>{x.data(), y.data(), c},
        obs::Counter::kPathEngineCells, obs::Counter::kPathEngineBytes);
    DtwResult result;
    result.distance = dp_result.distance;
    result.cells_visited = dp_result.cells_visited;
    result.path = WarpingPath(std::move(dp_result.path));
#ifndef NDEBUG
    // Debug-build invariant oracle hooks: the recovered alignment must be
    // a legal warping path, stay inside the window it was searched in,
    // and cost exactly what the DP reported.
    std::string path_error;
    WARP_CHECK_MSG(result.path.Validate(x.size(), y.size(), &path_error),
                   path_error.c_str());
    for (const PathPoint& p : result.path.points()) {
      WARP_DCHECK(window.Contains(p.i, p.j));
    }
#endif
    return result;
  });
}

// ---------------------------------------------------------------------------
// Euclidean distance.

double EuclideanDistance(std::span<const double> x, std::span<const double> y,
                         CostKind cost) {
  WARP_CHECK_MSG(x.size() == y.size(),
                 "Euclidean distance requires equal lengths");
  WARP_CHECK(!x.empty());
  return WithCost(cost, [&](auto c) {
    double sum = 0.0;
    for (size_t i = 0; i < x.size(); ++i) sum += c(x[i], y[i]);
    return sum;
  });
}

// ---------------------------------------------------------------------------
// Multichannel DTW.

double MultiDtwDistance(const MultiSeries& x, const MultiSeries& y,
                        CostKind cost, uint64_t* cells) {
  return MultiCdtwDistance(x, y, std::max(x.length(), y.length()), cost,
                           nullptr, cells);
}

double MultiCdtwDistance(const MultiSeries& x, const MultiSeries& y,
                         size_t band, CostKind cost, DtwWorkspace* buffer,
                         uint64_t* cells) {
  WARP_CHECK(!x.empty() && !y.empty());
  WARP_CHECK(x.num_channels() == y.num_channels());
  return WithCost(cost, [&](auto c) {
    return BandedDistance(x.length(), y.length(), band,
                          dp::MultiCellCost<decltype(c)>{&x, &y, c}, kInf,
                          buffer, cells);
  });
}

DtwResult MultiWindowedDtw(const MultiSeries& x, const MultiSeries& y,
                           const WarpingWindow& window, CostKind cost) {
  WARP_CHECK(!x.empty() && !y.empty());
  WARP_CHECK(x.num_channels() == y.num_channels());
  return WithCost(cost, [&](auto c) {
    dp::MaterializedResult dp_result = dp::MaterializedDp(
        x.length(), y.length(), window,
        dp::MultiCellCost<decltype(c)>{&x, &y, c},
        obs::Counter::kPathEngineCells, obs::Counter::kPathEngineBytes);
    DtwResult result;
    result.distance = dp_result.distance;
    result.cells_visited = dp_result.cells_visited;
    result.path = WarpingPath(std::move(dp_result.path));
#ifndef NDEBUG
    std::string path_error;
    WARP_CHECK_MSG(result.path.Validate(x.length(), y.length(), &path_error),
                   path_error.c_str());
    for (const PathPoint& p : result.path.points()) {
      WARP_DCHECK(window.Contains(p.i, p.j));
    }
#endif
    return result;
  });
}

}  // namespace warp
