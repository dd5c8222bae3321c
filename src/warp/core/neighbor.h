// The bounded top-k of a nearest-neighbor scan: the k smallest candidates
// under the total order (distance, index). The serve engine's chunk
// accumulators and merge, the cluster router's gather and the mining k-NN
// classifiers all rank through it, so a tie cannot break two ways.

#ifndef WARP_CORE_NEIGHBOR_H_
#define WARP_CORE_NEIGHBOR_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace warp {

struct Neighbor {
  size_t index = 0;
  int label = 0;
  double distance = 0.0;
};

// (distance, index) lexicographic order: the scan's total order. Ties on
// distance go to the earlier series, matching a serial first-wins scan.
inline bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

// Inserts `n` into `hits` (sorted by NeighborLess, at most k long),
// keeping the k smallest. Inline: it runs once per surviving candidate.
inline void AddTopK(std::vector<Neighbor>* hits, const Neighbor& n,
                    size_t k) {
  const auto pos =
      std::lower_bound(hits->begin(), hits->end(), n, NeighborLess);
  if (hits->size() == k && pos == hits->end()) return;
  hits->insert(pos, n);
  if (hits->size() > k) hits->pop_back();
}

}  // namespace warp

#endif  // WARP_CORE_NEIGHBOR_H_
