// Score-following / performance alignment (the paper's Case B).
//
// Aligns a "studio" recording against a "live" rendition of the same
// song (chroma-energy profiles at 100 Hz) and reports, for every studio
// timestamp, how far ahead or behind the live performance is — the
// payload a score-following application actually wants. Uses exact cDTW
// with the paper's 0.83% window (±2 s for a four-minute song).
//
// Build & run:  ./build/examples/music_alignment [length]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "warp/common/flags.h"
#include "warp/common/stopwatch.h"
#include "warp/core/dtw.h"
#include "warp/gen/chroma.h"

int main(int argc, char** argv) {
  warp::Flags flags(argc, argv);
  const size_t length = static_cast<size_t>(
      flags.PositionalInt("length", 12000, 16, warp::Flags::kNoMax));
  flags.Finalize();

  warp::gen::ChromaOptions options;
  options.length = length;
  options.max_shift_fraction = 0.0083;  // At most ~2 s of 240 s.
  const auto [studio, live] = warp::gen::MakePerformancePair(options);
  std::printf("aligning a %zu-sample (%.1f-minute at 100 Hz) performance "
              "pair, window w = 0.83%%\n\n",
              length, static_cast<double>(length) / 100.0 / 60.0);

  // Path-recovering cDTW: the band is the paper's w as cells.
  const size_t band = std::max<size_t>(1, length * 83 / 10000);
  warp::Stopwatch watch;
  const warp::DtwResult alignment = warp::Cdtw(studio, live, band);
  const double elapsed_ms = watch.ElapsedMillis();

  std::printf("alignment computed in %.1f ms (distance %.2f, %zu path "
              "steps)\n\n",
              elapsed_ms, alignment.distance, alignment.path.size());

  // Tempo report: offset (live - studio) sampled every 10% of the song.
  std::printf("%-12s %-14s %s\n", "position", "studio time", "live offset");
  for (int decile = 0; decile <= 10; ++decile) {
    const size_t target_i = (length - 1) * static_cast<size_t>(decile) / 10;
    // Find a path point at this studio index (paths are monotone, so a
    // binary search over path points by .i works).
    const auto& points = alignment.path.points();
    const auto it = std::lower_bound(
        points.begin(), points.end(), target_i,
        [](const warp::PathPoint& p, size_t i) { return p.i < i; });
    const double offset_seconds =
        (static_cast<double>(it->j) - static_cast<double>(it->i)) / 100.0;
    std::printf("%3d%%         %6.1f s       %+6.2f s %s\n", decile * 10,
                static_cast<double>(target_i) / 100.0, offset_seconds,
                offset_seconds > 0 ? "(live is behind)"
                                   : offset_seconds < 0 ? "(live is ahead)"
                                                        : "");
  }

  std::printf(
      "\nmax tempo deviation on the optimal path: %.2f s (window allows "
      "%.2f s)\n",
      static_cast<double>(alignment.path.MaxDiagonalDeviation()) / 100.0,
      static_cast<double>(band) / 100.0);
  return 0;
}
