#include <string>

int main(int argc, char** argv) {
  const double window = argc > 1 ? std::stod(argv[1]) : 0.1;
  return window > 0.0 ? 0 : 1;
}
