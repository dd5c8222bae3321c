#include <cstdlib>

int main(int argc, char** argv) {
  const long reps = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 1;
  return reps > 0 ? 0 : 1;
}
