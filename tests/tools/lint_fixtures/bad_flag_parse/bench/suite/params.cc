// The benchmark package parses its own --params list: exempt.
#include <cstdlib>

double ParamValue(const char* text) { return std::strtod(text, nullptr); }
