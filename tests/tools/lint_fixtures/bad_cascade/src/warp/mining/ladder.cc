// Fixture: a hand-written cascade rung outside warp/core/cascade.*.
#include "warp/common/metrics.h"

namespace warp {
bool KimKills(double kim, double bound) {
  WARP_COUNT(obs::Counter::kCascadeCandidates);
  if (kim <= bound) return false;
  WARP_COUNT(obs::Counter::kLbKimKills);
  return true;
}
}  // namespace warp
