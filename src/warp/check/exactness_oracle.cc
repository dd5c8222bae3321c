#include "warp/check/exactness_oracle.h"

#include <cmath>
#include <cstdio>

#include "warp/check/path_oracle.h"
#include "warp/common/assert.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/mining/nn_classifier.h"

namespace warp {
namespace check {

namespace {

bool NearlyEqual(double a, double b, double tolerance) {
  return std::fabs(a - b) <=
         tolerance * (1.0 + std::fabs(a) + std::fabs(b));
}

bool Explain(std::string* error, const char* format, double a, double b) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), format, a, b);
  *error = buffer;
  return false;
}

}  // namespace

bool CheckAbandoningExact(std::span<const double> x,
                          std::span<const double> y, size_t band,
                          double threshold, CostKind cost, double tolerance,
                          std::string* error) {
  WARP_CHECK(error != nullptr);
  const double exact = CdtwDistance(x, y, band, cost);
  const double abandoned = CdtwDistanceAbandoning(x, y, band, threshold, cost);
  if (std::isinf(abandoned)) {
    if (exact <= threshold) {
      return Explain(error,
                     "early abandon fired although the exact distance "
                     "%.17g is within the threshold %.17g",
                     exact, threshold);
    }
    return true;
  }
  if (!NearlyEqual(abandoned, exact, tolerance)) {
    return Explain(error,
                   "early-abandoning distance %.17g differs from the exact "
                   "distance %.17g",
                   abandoned, exact);
  }
  return true;
}

bool CheckFastDtwAdmissible(std::span<const double> x,
                            std::span<const double> y, size_t radius,
                            CostKind cost, double tolerance,
                            std::string* error) {
  WARP_CHECK(error != nullptr);
  const DtwResult approx = FastDtw(x, y, radius, cost);
  const double exact = DtwDistance(x, y, cost);
  const double slack =
      tolerance * (1.0 + std::fabs(exact) + std::fabs(approx.distance));
  if (approx.distance < exact - slack) {
    return Explain(error,
                   "FastDTW distance %.17g undershoots the exact DTW "
                   "distance %.17g — an inadmissible approximation",
                   approx.distance, exact);
  }
  if (!CheckPath(approx.path, x.size(), y.size(), error)) return false;
  return CheckPathCost(approx.path, x, y, cost, approx.distance, tolerance,
                       error);
}

bool CheckSelfDistanceZero(std::span<const double> x, size_t band,
                           CostKind cost, double tolerance,
                           std::string* error) {
  WARP_CHECK(error != nullptr);
  const double banded = CdtwDistance(x, x, band, cost);
  const double full = DtwDistance(x, x, cost);
  if (!NearlyEqual(banded, 0.0, tolerance) ||
      !NearlyEqual(full, 0.0, tolerance)) {
    return Explain(error,
                   "self-distance is not zero: cDTW_w(a, a) = %.17g, "
                   "DTW(a, a) = %.17g",
                   banded, full);
  }
  return true;
}

bool CheckSymmetry(std::span<const double> x, std::span<const double> y,
                   size_t band, CostKind cost, double tolerance,
                   std::string* error) {
  WARP_CHECK(error != nullptr);
  const double forward = CdtwDistance(x, y, band, cost);
  const double backward = CdtwDistance(y, x, band, cost);
  if (!NearlyEqual(forward, backward, tolerance)) {
    return Explain(error,
                   "cDTW_w(x, y) = %.17g differs from cDTW_w(y, x) = %.17g",
                   forward, backward);
  }
  return true;
}

bool CheckCascadeExact(const Dataset& train, const Dataset& test,
                       size_t band, CostKind cost, size_t threads,
                       double tolerance, std::string* error) {
  WARP_CHECK(error != nullptr);
  WARP_CHECK(!train.empty() && !test.empty());
  const AcceleratedNnClassifier accelerated(train, band, cost);
  const SeriesMeasure measure = [band, cost](std::span<const double> a,
                                             std::span<const double> b) {
    return CdtwDistance(a, b, band, cost);
  };
  size_t brute_correct = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    const Prediction fast = accelerated.Classify(test[i].view());
    const Prediction brute = Classify1Nn(train, test[i].view(), measure);
    if (brute.label == test[i].label()) ++brute_correct;
    if (!NearlyEqual(fast.distance, brute.distance, tolerance)) {
      char buffer[192];
      std::snprintf(buffer, sizeof(buffer),
                    "query %zu: cascade nearest distance %.17g differs from "
                    "brute force %.17g",
                    i, fast.distance, brute.distance);
      *error = buffer;
      return false;
    }
    // Equal-distance ties may resolve to different exemplars, but then
    // both exemplars are genuine nearest neighbors; labels must still
    // agree when the tie is unique.
    if (fast.nn_index == brute.nn_index && fast.label != brute.label) {
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer),
                    "query %zu: cascade label %d differs from brute force "
                    "%d at the same neighbor",
                    i, fast.label, brute.label);
      *error = buffer;
      return false;
    }
  }
  const ClassificationStats stats = accelerated.Evaluate(test, threads);
  if (stats.correct != brute_correct || stats.total != test.size()) {
    char buffer[192];
    std::snprintf(buffer, sizeof(buffer),
                  "Evaluate at %zu thread(s) counted %zu/%zu correct but "
                  "brute force counted %zu/%zu",
                  threads, stats.correct, stats.total, brute_correct,
                  test.size());
    *error = buffer;
    return false;
  }
  return true;
}

}  // namespace check
}  // namespace warp
