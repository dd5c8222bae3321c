#include "warp/common/flags.h"

int main(int argc, char** argv) {
  warp::Flags flags(argc, argv);
  return static_cast<int>(flags.GetInt("level", 0, 0, 3));
}
