#include "warp/serve/request.h"

#include <algorithm>

namespace warp {
namespace serve {

const char* QueryOpName(QueryOp op) {
  switch (op) {
    case QueryOp::k1Nn: return "1nn";
    case QueryOp::kKnn: return "knn";
    case QueryOp::kRange: return "range";
    case QueryOp::kDist: return "dist";
    case QueryOp::kSubsequence: return "subsequence";
  }
  return "unknown";
}

obs::Histogram LatencyHistogramForOp(QueryOp op) {
  switch (op) {
    case QueryOp::k1Nn: return obs::Histogram::kServeLatency1nn;
    case QueryOp::kKnn: return obs::Histogram::kServeLatencyKnn;
    case QueryOp::kRange: return obs::Histogram::kServeLatencyRange;
    case QueryOp::kDist: return obs::Histogram::kServeLatencyDist;
    case QueryOp::kSubsequence:
      return obs::Histogram::kServeLatencySubsequence;
  }
  return obs::Histogram::kServeLatency1nn;
}

bool ParseQueryOp(const std::string& name, QueryOp* op) {
  if (name == "1nn") *op = QueryOp::k1Nn;
  else if (name == "knn") *op = QueryOp::kKnn;
  else if (name == "range") *op = QueryOp::kRange;
  else if (name == "dist") *op = QueryOp::kDist;
  else if (name == "subsequence") *op = QueryOp::kSubsequence;
  else return false;
  return true;
}

bool IsScanOp(QueryOp op) {
  return op == QueryOp::k1Nn || op == QueryOp::kKnn || op == QueryOp::kRange;
}

std::vector<Neighbor> MergeNeighbors(
    QueryOp op, size_t k, const std::vector<std::vector<Neighbor>>& parts) {
  std::vector<Neighbor> merged;
  if (op == QueryOp::kRange) {
    for (const std::vector<Neighbor>& part : parts) {
      merged.insert(merged.end(), part.begin(), part.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.index < b.index;
              });
    return merged;
  }
  if (op == QueryOp::k1Nn) k = 1;
  for (const std::vector<Neighbor>& part : parts) {
    for (const Neighbor& n : part) AddTopK(&merged, n, k);
  }
  return merged;
}

}  // namespace serve
}  // namespace warp
