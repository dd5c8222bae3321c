#include "warp/ts/io.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace warp {

namespace {

bool IsSeparator(char c) {
  return c == '\t' || c == ',' || c == ' ' || c == '\r';
}

// Splits on any run of separators.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && IsSeparator(line[i])) ++i;
    size_t start = i;
    while (i < line.size() && !IsSeparator(line[i])) ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

bool ParseDouble(const std::string& token, double* value) {
  char* end = nullptr;
  *value = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size() && std::isfinite(*value);
}

}  // namespace

bool ParseUcrLine(const std::string& line, TimeSeries* series,
                  std::string* error) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.size() < 2) {
    *error = "line must contain a label and at least one value";
    return false;
  }
  double label_value = 0.0;
  if (!ParseDouble(tokens[0], &label_value)) {
    *error = "unparseable class label: '" + tokens[0] + "'";
    return false;
  }
  // Integer-valued and in range for int, so the cast below is exact; the
  // old archive's "1.0000000e+00" still reads as class 1.
  if (label_value != std::trunc(label_value) ||
      label_value < std::numeric_limits<int>::min() ||
      label_value > std::numeric_limits<int>::max()) {
    *error = "class label must be an integer: '" + tokens[0] + "'";
    return false;
  }
  std::vector<double> values;
  values.reserve(tokens.size() - 1);
  for (size_t i = 1; i < tokens.size(); ++i) {
    double v = 0.0;
    if (!ParseDouble(tokens[i], &v)) {
      *error = "unparseable or non-finite value: '" + tokens[i] + "'";
      return false;
    }
    values.push_back(v);
  }
  *series = TimeSeries(std::move(values), static_cast<int>(label_value));
  return true;
}

bool LoadUcrFile(const std::string& path, Dataset* dataset,
                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open file: " + path;
    return false;
  }
  Dataset result;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line == "\r") continue;
    TimeSeries series;
    std::string parse_error;
    if (!ParseUcrLine(line, &series, &parse_error)) {
      *error = path + ":" + std::to_string(line_number) + ": " + parse_error;
      return false;
    }
    result.Add(std::move(series));
  }
  if (result.empty()) {
    *error = "file contains no series: " + path;
    return false;
  }
  result.set_name(path);
  *dataset = std::move(result);
  return true;
}

bool SaveUcrFile(const std::string& path, const Dataset& dataset,
                 std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot open file for writing: " + path;
    return false;
  }
  out.precision(17);
  for (const auto& series : dataset.series()) {
    out << series.label();
    for (double v : series.values()) out << '\t' << v;
    out << '\n';
  }
  if (!out) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

bool LoadSeriesFile(const std::string& path, TimeSeries* series,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open file: " + path;
    return false;
  }
  std::vector<double> values;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    for (const std::string& token : Tokenize(line)) {
      double v = 0.0;
      if (!ParseDouble(token, &v)) {
        *error = path + ":" + std::to_string(line_number) +
                 ": unparseable or non-finite value: '" + token + "'";
        return false;
      }
      values.push_back(v);
    }
  }
  if (values.empty()) {
    *error = "file contains no values: " + path;
    return false;
  }
  *series = TimeSeries(std::move(values));
  return true;
}

bool SaveSeriesFile(const std::string& path, const TimeSeries& series,
                    std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot open file for writing: " + path;
    return false;
  }
  out.precision(17);
  for (double v : series.values()) out << v << '\n';
  if (!out) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace warp
