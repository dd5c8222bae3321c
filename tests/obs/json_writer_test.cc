// Unit tests for the bench-report JSON emitter.

#include "warp/obs/json_writer.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "testing/reference_impls.h"
#include "warp/common/random.h"

namespace warp {
namespace obs {
namespace {

TEST(JsonWriterTest, EmptyObject) {
  JsonWriter writer;
  writer.BeginObject().EndObject();
  EXPECT_EQ(writer.TakeOutput(), "{}");
}

TEST(JsonWriterTest, EmptyArray) {
  JsonWriter writer;
  writer.BeginArray().EndArray();
  EXPECT_EQ(writer.TakeOutput(), "[]");
}

TEST(JsonWriterTest, ScalarDocument) {
  JsonWriter writer;
  writer.Int(-42);
  EXPECT_EQ(writer.TakeOutput(), "-42");
}

TEST(JsonWriterTest, ObjectWithMixedValues) {
  JsonWriter writer;
  writer.BeginObject()
      .Key("a")
      .Int(1)
      .Key("b")
      .String("two")
      .Key("c")
      .Bool(true)
      .Key("d")
      .Null()
      .Key("e")
      .Uint(18446744073709551615ull)
      .EndObject();
  EXPECT_EQ(writer.TakeOutput(),
            "{\"a\":1,\"b\":\"two\",\"c\":true,\"d\":null,"
            "\"e\":18446744073709551615}");
}

TEST(JsonWriterTest, NestedContainersGetCommasRight) {
  JsonWriter writer;
  writer.BeginObject()
      .Key("rows")
      .BeginArray()
      .BeginObject()
      .Key("x")
      .Int(1)
      .EndObject()
      .BeginObject()
      .Key("x")
      .Int(2)
      .EndObject()
      .EndArray()
      .Key("tail")
      .BeginArray()
      .Int(1)
      .Int(2)
      .Int(3)
      .EndArray()
      .EndObject();
  EXPECT_EQ(writer.TakeOutput(),
            "{\"rows\":[{\"x\":1},{\"x\":2}],\"tail\":[1,2,3]}");
}

TEST(JsonWriterTest, RawValueSplicesVerbatim) {
  JsonWriter writer;
  writer.BeginObject().Key("cfg").RawValue("3.25").EndObject();
  EXPECT_EQ(writer.TakeOutput(), "{\"cfg\":3.25}");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonWriter::Escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonWriter::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::Escape("tab\tnewline\n"), "tab\\tnewline\\n");
  EXPECT_EQ(JsonWriter::Escape(std::string("nul\0byte", 8)),
            "nul\\u0000byte");
  EXPECT_EQ(JsonWriter::Escape("\x01\x1f"), "\\u0001\\u001f");
}

TEST(JsonWriterTest, Utf8PassesThroughUnchanged) {
  const std::string utf8 = "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac";
  EXPECT_EQ(JsonWriter::Escape(utf8), utf8);
}

TEST(JsonWriterTest, StringValueIsQuotedAndEscaped) {
  JsonWriter writer;
  writer.String("line1\nline2");
  EXPECT_EQ(writer.TakeOutput(), "\"line1\\nline2\"");
}

TEST(JsonWriterTest, DoubleRoundTripsExactly) {
  const double cases[] = {0.0,   1.0,     -1.5,        0.1,
                          1e-30, 1e30,    3.141592653589793,
                          1.0 / 3.0,      5e-324,
                          std::numeric_limits<double>::max()};
  for (const double value : cases) {
    const std::string text = JsonWriter::FormatDouble(value);
    const double parsed = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(parsed, value) << text;
  }
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(JsonWriter::FormatDouble(std::nan("")), "null");
  EXPECT_EQ(JsonWriter::FormatDouble(
                std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(JsonWriter::FormatDouble(
                -std::numeric_limits<double>::infinity()),
            "null");
  JsonWriter writer;
  writer.BeginArray().Double(std::nan("")).Double(2.5).EndArray();
  EXPECT_EQ(writer.TakeOutput(), "[null,2.5]");
}

TEST(JsonWriterTest, NegativeZeroSurvives) {
  const std::string text = JsonWriter::FormatDouble(-0.0);
  const double parsed = std::strtod(text.c_str(), nullptr);
  EXPECT_TRUE(std::signbit(parsed));
}

// Checks FormatDouble, and Double inside an array, against the printf
// rule byte for byte; reports the first few values that differ.
void ExpectPrintfBytes(const std::vector<double>& values, const char* what) {
  JsonWriter writer;
  writer.BeginArray();
  std::string want = "[";
  size_t mismatches = 0;
  for (const double value : values) {
    const std::string expected = testing::RefFormatDouble(value);
    const std::string got = JsonWriter::FormatDouble(value);
    if (got != expected && ++mismatches <= 5) {
      ADD_FAILURE() << what << ": " << std::hexfloat << value
                    << " formats as " << got << ", the printf rule gives "
                    << expected;
    }
    writer.Double(value);
    if (want.size() > 1) want.push_back(',');
    want += expected;
  }
  writer.EndArray();
  want.push_back(']');
  EXPECT_EQ(mismatches, 0u) << what << ", of " << values.size();
  EXPECT_TRUE(writer.TakeOutput() == want)
      << what << ": JsonWriter::Double differs from the printf rule";
}

TEST(JsonWriterTest, DoublesKeepThePrintfRuleByteForByte) {
  Rng rng(2501);
  std::vector<double> normal(100000);
  for (double& value : normal) value = rng.Gaussian();
  ExpectPrintfBytes(normal, "normal draws");

  std::vector<double> patterns;
  while (patterns.size() < 100000) {
    const uint64_t bits = rng.NextU64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) patterns.push_back(value);
  }
  ExpectPrintfBytes(patterns, "random bit patterns");

  std::vector<double> decades;
  for (int exponent = -300; exponent <= 300; ++exponent) {
    const double power = std::strtod(
        ("1e" + std::to_string(exponent)).c_str(), nullptr);
    decades.push_back(power);
    for (int i = 0; i < 16; ++i) {
      decades.push_back(rng.Uniform(1.0, 10.0) * power);
    }
  }
  ExpectPrintfBytes(decades, "decimal exponents -300 to 300");

  // Taking the shortest digit count first and padding it to 15 parts
  // from the rule on 46 of these, 2^89 among them: the rule gives
  // 6.1897001964269014e+26, the shortcut 6.189700196426901e+26.
  std::vector<double> powers;
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    const double power = std::ldexp(1.0, exponent);
    powers.push_back(std::nextafter(power, 0.0));
    powers.push_back(power);
    powers.push_back(std::nextafter(power, HUGE_VAL));
  }
  ExpectPrintfBytes(powers, "powers of two and their neighbours");

  std::vector<double> edges = {0.0, -0.0, 5e-324, DBL_MIN, DBL_MAX, -DBL_MAX};
  for (const double power : {1e15, 1e16, 1e17}) {
    edges.push_back(std::nextafter(power, 0.0));
    edges.push_back(power);
    edges.push_back(std::nextafter(power, HUGE_VAL));
  }
  for (int i = 0; i < 1000; ++i) {
    edges.push_back(std::floor(rng.Uniform(1e15, 1e17)));
  }
  ExpectPrintfBytes(edges, "edge values");
}

TEST(JsonWriterDeathTest, ValueWithoutKeyInObjectAborts) {
  EXPECT_DEATH(
      {
        JsonWriter writer;
        writer.BeginObject().Int(1);
      },
      "");
}

TEST(JsonWriterDeathTest, KeyInsideArrayAborts) {
  EXPECT_DEATH(
      {
        JsonWriter writer;
        writer.BeginArray().Key("k");
      },
      "");
}

TEST(JsonWriterDeathTest, SecondTopLevelValueAborts) {
  EXPECT_DEATH(
      {
        JsonWriter writer;
        writer.Int(1);
        writer.Int(2);
      },
      "");
}

TEST(JsonWriterDeathTest, UnclosedContainerAbortsOnTakeOutput) {
  EXPECT_DEATH(
      {
        JsonWriter writer;
        writer.BeginObject();
        writer.TakeOutput();
      },
      "");
}

}  // namespace
}  // namespace obs
}  // namespace warp
