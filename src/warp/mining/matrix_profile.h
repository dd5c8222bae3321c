// Matrix profile (self-join) via a STOMP-style diagonal computation.
//
// For every window of length m, the matrix profile stores the squared
// z-normalized Euclidean distance to its nearest non-trivial-match
// neighbor, and the profile index stores where that neighbor is. Motifs
// are the profile's minima, discords its maxima — the O(n^2)-total,
// O(1)-per-cell upgrade of the brute-force discovery in
// warp/mining/anomaly.h (which remains as the DTW-capable reference).
//
// Implementation: running dot products along matrix diagonals
// (QT(i+1, j+1) = QT(i, j) - t[i]t[j] + t[i+m]t[j+m]) with distances via
// the Pearson identity d^2 = 2m(1 - corr). An exclusion zone of m/2
// around the diagonal suppresses trivial self-matches. Constant windows
// (zero variance) are handled with the usual convention: two constants
// match perfectly, a constant against anything else is maximally distant.

#ifndef WARP_MINING_MATRIX_PROFILE_H_
#define WARP_MINING_MATRIX_PROFILE_H_

#include <cstddef>
#include <span>
#include <vector>

namespace warp {

struct MatrixProfile {
  size_t window = 0;              // m.
  std::vector<double> profile;    // Squared z-normalized ED to the NN.
  std::vector<size_t> index;      // Position of that nearest neighbor.

  size_t size() const { return profile.size(); }
};

// Self-join matrix profile; series must have at least m + m/2 + 1 points
// so at least one non-excluded pair exists.
MatrixProfile ComputeMatrixProfile(std::span<const double> series, size_t m);

// Convenience extractor. The position is a window start.
struct ProfileDiscord {
  size_t position = 0;
  double nn_distance = 0.0;
};

ProfileDiscord TopDiscord(const MatrixProfile& profile);

}  // namespace warp

#endif  // WARP_MINING_MATRIX_PROFILE_H_
