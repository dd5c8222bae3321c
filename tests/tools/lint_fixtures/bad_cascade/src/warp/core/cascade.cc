// Fixture: the cascade itself may name its counters.
#include "warp/common/metrics.h"

namespace warp {
void CountAbandon() { WARP_COUNT(obs::Counter::kCascadeEarlyAbandons); }
}  // namespace warp
