// Wire-protocol tests: request-line parsing (valid, malformed, hostile)
// and response formatting, including the double round-trip guarantee the
// loopback golden tests build on.

#include "warp/serve/protocol.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "warp/serve/wire.h"

namespace warp {
namespace serve {
namespace {

TEST(ProtocolTest, ParsesFullQueryLine) {
  ParsedLine parsed;
  std::string error;
  const std::string line =
      R"({"id": 7, "op": "knn", "dataset": "train", "measure": "cdtw",)"
      R"( "window": 0.2, "k": 3, "znorm": false, "deadline_ms": 12.5,)"
      R"( "query": [1.0, 2.5, -3.0]})";
  ASSERT_TRUE(ParseRequestLine(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.control, ControlOp::kNone);
  EXPECT_EQ(parsed.id, 7);
  EXPECT_EQ(parsed.request.id, 7);
  EXPECT_EQ(parsed.request.op, QueryOp::kKnn);
  EXPECT_EQ(parsed.request.dataset, "train");
  EXPECT_EQ(parsed.request.measure, "cdtw");
  EXPECT_EQ(parsed.request.params.window_fraction, 0.2);
  EXPECT_EQ(parsed.request.k, 3u);
  EXPECT_FALSE(parsed.request.znormalize);
  EXPECT_EQ(parsed.request.deadline_ms, 12.5);
  EXPECT_EQ(parsed.request.query, (std::vector<double>{1.0, 2.5, -3.0}));
}

TEST(ProtocolTest, DefaultsMatchServeRequestDefaults) {
  ParsedLine parsed;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "query": [0.0, 1.0]})", &parsed,
      &error))
      << error;
  const ServeRequest defaults;
  EXPECT_EQ(parsed.request.measure, defaults.measure);
  EXPECT_EQ(parsed.request.params.window_fraction,
            defaults.params.window_fraction);
  EXPECT_EQ(parsed.request.k, defaults.k);
  EXPECT_EQ(parsed.request.znormalize, defaults.znormalize);
  EXPECT_EQ(parsed.request.deadline_ms, defaults.deadline_ms);
}

TEST(ProtocolTest, ParsesBandAsExplicitCellCount) {
  ParsedLine parsed;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "band": 5, "query": [0.0]})", &parsed,
      &error))
      << error;
  EXPECT_EQ(parsed.request.params.band_cells, 5);
}

TEST(ProtocolTest, ParsesControlOps) {
  ParsedLine parsed;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(R"({"id": 1, "op": "ping"})", &parsed, &error));
  EXPECT_EQ(parsed.control, ControlOp::kPing);

  ASSERT_TRUE(ParseRequestLine(R"({"op": "stats"})", &parsed, &error));
  EXPECT_EQ(parsed.control, ControlOp::kStats);

  ASSERT_TRUE(ParseRequestLine(R"({"op": "shutdown"})", &parsed, &error));
  EXPECT_EQ(parsed.control, ControlOp::kShutdown);

  ASSERT_TRUE(ParseRequestLine(R"({"op": "info", "dataset": "d"})", &parsed,
                               &error));
  EXPECT_EQ(parsed.control, ControlOp::kInfo);
  EXPECT_EQ(parsed.dataset, "d");

  ASSERT_TRUE(ParseRequestLine(
      R"({"op": "load", "dataset": "d", "path": "/tmp/x.tsv",)"
      R"( "bands": [0.05, 0.1]})",
      &parsed, &error));
  EXPECT_EQ(parsed.control, ControlOp::kLoad);
  EXPECT_EQ(parsed.path, "/tmp/x.tsv");
  EXPECT_EQ(parsed.band_fractions, (std::vector<double>{0.05, 0.1}));
}

TEST(ProtocolTest, RejectsMalformedLines) {
  ParsedLine parsed;
  std::string error;
  EXPECT_FALSE(ParseRequestLine("not json", &parsed, &error));
  EXPECT_NE(error.find("malformed JSON"), std::string::npos);

  EXPECT_FALSE(ParseRequestLine("[1, 2]", &parsed, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"id": 3})", &parsed, &error));
  EXPECT_NE(error.find("missing 'op'"), std::string::npos);

  EXPECT_FALSE(
      ParseRequestLine(R"({"op": "frobnicate", "dataset": "d"})", &parsed,
                       &error));
  EXPECT_NE(error.find("unknown op"), std::string::npos);
}

TEST(ProtocolTest, ErrorLinesStillCarryTheRequestId) {
  ParsedLine parsed;
  std::string error;
  EXPECT_FALSE(ParseRequestLine(R"({"id": 42, "op": "1nn"})", &parsed,
                                &error));
  EXPECT_EQ(parsed.id, 42);  // So the server can echo it back.
}

TEST(ProtocolTest, RejectsBadQueryFields) {
  ParsedLine parsed;
  std::string error;
  // Query ops need a dataset and a numeric query array.
  EXPECT_FALSE(ParseRequestLine(R"({"op": "1nn", "query": [1.0]})", &parsed,
                                &error));
  EXPECT_FALSE(ParseRequestLine(R"({"op": "1nn", "dataset": "d"})", &parsed,
                                &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "query": ["a"]})", &parsed, &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "query": [1.0], "k": 1.5})", &parsed,
      &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "query": [1.0], "band": -1})", &parsed,
      &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "query": [1.0], "cost": "cubic"})",
      &parsed, &error));
  // A band is a window fraction, as --bands and a query's window are.
  for (const char* bands : {"[-0.1]", "[5]", "[1.5]", "[1e300]"}) {
    EXPECT_FALSE(ParseRequestLine(
        std::string(R"({"op": "load", "dataset": "d", "path": "p", )") +
            R"("bands": )" + bands + "}",
        &parsed, &error))
        << bands;
    EXPECT_NE(error.find("'bands' entries must be fractions from 0 to 1"),
              std::string::npos)
        << error;
  }
  ASSERT_TRUE(ParseRequestLine(
      R"({"op": "load", "dataset": "d", "path": "p", "bands": [0, 1]})",
      &parsed, &error))
      << error;
  EXPECT_EQ(parsed.band_fractions, (std::vector<double>{0.0, 1.0}));

  // Integer fields out of range for their type are errors, never silent
  // casts (1e300 must not read as index 0, band -2^63, or "no shard").
  EXPECT_FALSE(ParseRequestLine(R"({"id": 1e300, "op": "ping"})", &parsed,
                                &error));
  EXPECT_NE(error.find("'id'"), std::string::npos) << error;
  for (const std::string field :
       {R"("id": 1.5)", R"("id": 9223372036854775808)", R"("index": 1e300)",
        R"("index": -1)", R"("k": 18446744073709551616)",
        R"("radius": 2.5)", R"("band": 1e300)", R"("band": 0.5)",
        R"("shard": 1e300)", R"("shard": -1)", R"("shard_epoch": -1)",
        R"("shard_epoch": 1e20)", R"("k": "3")", R"("window": -5)",
        R"("window": 1.5)", R"("window": 1e999)"}) {
    EXPECT_FALSE(ParseRequestLine(
        R"({"op": "dist", "dataset": "d", "query": [1.0], )" + field + "}",
        &parsed, &error))
        << field;
  }
  // A window is a fraction: both ends are valid, anything past them is
  // refused by name rather than read as Full DTW by one op and Euclidean
  // by another.
  EXPECT_FALSE(ParseRequestLine(
      R"({"op": "1nn", "dataset": "d", "query": [1.0], "window": -5})",
      &parsed, &error));
  EXPECT_NE(error.find("'window' must be a fraction from 0 to 1"),
            std::string::npos)
      << error;
  for (const char* window : {"0", "1"}) {
    EXPECT_TRUE(ParseRequestLine(
        std::string(R"({"op": "1nn", "dataset": "d", "query": [1.0], )") +
            R"("window": )" + window + "}",
        &parsed, &error))
        << error;
  }
}

TEST(ProtocolTest, IntegerFieldsAreExactTo64Bits) {
  ParsedLine parsed;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"id": -9223372036854775808, "op": "dist", "dataset": "d",)"
      R"( "index": 1e3, "shard": 2.0, "shard_epoch": 18446744073709551615,)"
      R"( "query": [1.0]})",
      &parsed, &error))
      << error;
  EXPECT_EQ(parsed.id, INT64_MIN);
  EXPECT_EQ(parsed.request.index, 1000u);
  EXPECT_EQ(parsed.request.shard_filter, 2);
  EXPECT_EQ(parsed.request.require_epoch, UINT64_MAX);
}

// The response-side twin: worker replies the router gathers go through
// the same checked reader, so a corrupt or incomplete reply is an error
// (the router then counts that shard as missing) instead of a wrapped
// index or a missing field read as 0.
TEST(ProtocolTest, RejectsBadResponseFields) {
  ServeResponse response;
  std::string error;
  // Every field an ok knn reply carries; each tail below adds a bad field
  // or replaces a good one (the last of a repeated key wins).
  const std::string head =
      R"({"id": 1, "ok": true, "op": "knn", "partial": false, "scanned": 1,)"
      R"( "total": 1, "neighbors": [],)";
  ASSERT_TRUE(ParseResponseLine(
      head + R"( "neighbors": [{"index": 3, "label": -2, "distance": 0.5}]})",
      &response, &error))
      << error;
  EXPECT_EQ(response.neighbors[0].index, 3u);
  EXPECT_EQ(response.neighbors[0].label, -2);
  const std::vector<std::pair<std::string, std::string>> bad_lines = {
      {head + R"( "neighbors": [{"index": -1, "label": 0, "distance": 1}]})",
       "index"},
      {head + R"( "neighbors": [{"index": 1e300, "label": 0, "distance": 1}]})",
       "index"},
      {head + R"( "neighbors": [{"index": 1, "label": 3e9, "distance": 1}]})",
       "label"},
      {head + R"( "neighbors": [{"index": 1, "label": 0.5, "distance": 1}]})",
       "label"},
      {head + R"( "neighbors": [{"index": 3, "label": 1}]})", "distance"},
      {head + R"( "neighbors": [{"index": 3, "label": 1, "distance": "1"}]})",
       "distance"},
      {head + R"( "neighbors": [{"index": 3, "label": 1, "distance": null}]})",
       "distance"},
      {head + R"( "neighbors": [{"label": 1, "distance": 1}]})", "index"},
      {head + R"( "neighbors": [{"index": 3, "distance": 1}]})", "label"},
      {head + R"( "scanned": 1e300})", "scanned"},
      {head + R"( "total": -4})", "total"},
      {head + R"( "position": 2.5})", "position"},
      {head + R"( "partial": 1})", "partial"},
      {head + R"( "shards_missing": [1.5]})", "shards_missing"},
      {head + R"( "shards_missing": [-1]})", "shards_missing"},
      // Replies missing a field FormatResponse always writes.
      {R"({"id": 1, "ok": true, "op": "knn", "partial": false,)"
       R"( "neighbors": []})",
       "scanned"},
      {R"({"id": 1, "ok": true, "op": "knn", "partial": false,)"
       R"( "scanned": 1, "total": 1})",
       "neighbors"},
      {R"({"id": 1, "ok": true, "op": "knn", "scanned": 1, "total": 1,)"
       R"( "neighbors": []})",
       "partial"},
      {R"({"id": 1, "ok": true, "op": "dist", "partial": false,)"
       R"( "scanned": 1, "total": 1})",
       "distance"},
      {R"({"id": 1, "ok": true, "op": "subsequence", "partial": false,)"
       R"( "scanned": 1, "total": 1, "distance": 1})",
       "position"},
  };
  for (const auto& [line, field] : bad_lines) {
    ServeResponse bad;
    EXPECT_FALSE(ParseResponseLine(line, &bad, &error)) << line;
    EXPECT_NE(error.find("'" + field + "'"), std::string::npos)
        << line << ": " << error;
  }
  EXPECT_FALSE(ParseResponseLine(R"({"id": 1e300, "ok": false})", &response,
                                 &error));
}

// The property the result cache and loopback golden tests rely on:
// a distance formatted by FormatResponse re-parses to identical bits.
TEST(ProtocolTest, DoublesSurviveTheWireBitForBit) {
  ServeResponse response;
  response.id = 5;
  response.ok = true;
  response.op = QueryOp::kDist;
  response.scanned = response.total = 1;
  response.distance = 1.0 / 3.0 * 7.000000001;

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(FormatResponse(response), &root, &error)) << error;
  const JsonValue* distance = root.Find("distance");
  ASSERT_NE(distance, nullptr);
  EXPECT_EQ(distance->AsNumber(), response.distance);
}

TEST(ProtocolTest, FormatsNeighborLists) {
  ServeResponse response;
  response.id = 9;
  response.ok = true;
  response.op = QueryOp::kKnn;
  response.scanned = response.total = 10;
  response.neighbors.push_back({3, 1, 0.25});
  response.neighbors.push_back({7, 2, 0.5});

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(FormatResponse(response), &root, &error)) << error;
  EXPECT_EQ(root.NumberOr("id", -1), 9.0);
  EXPECT_TRUE(root.BoolOr("ok", false));
  EXPECT_FALSE(root.BoolOr("partial", true));
  const JsonValue* neighbors = root.Find("neighbors");
  ASSERT_NE(neighbors, nullptr);
  ASSERT_TRUE(neighbors->is_array());
  ASSERT_EQ(neighbors->AsArray().size(), 2u);
  EXPECT_EQ(neighbors->AsArray()[0].NumberOr("index", -1), 3.0);
  EXPECT_EQ(neighbors->AsArray()[1].NumberOr("distance", -1), 0.5);
}

TEST(ProtocolTest, FormatsErrorsWithoutResultFields) {
  ServeResponse response;
  response.id = 2;
  response.ok = false;
  response.error = "unknown dataset: x";

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(FormatResponse(response), &root, &error)) << error;
  EXPECT_FALSE(root.BoolOr("ok", true));
  EXPECT_EQ(root.StringOr("error", ""), "unknown dataset: x");
  EXPECT_EQ(root.Find("neighbors"), nullptr);

  ASSERT_TRUE(ParseJson(FormatErrorLine(11, "nope"), &root, &error)) << error;
  EXPECT_EQ(root.NumberOr("id", -1), 11.0);
  EXPECT_EQ(root.StringOr("error", ""), "nope");
}

TEST(ProtocolTest, QueryOpNamesRoundTrip) {
  for (QueryOp op : {QueryOp::k1Nn, QueryOp::kKnn, QueryOp::kRange,
                     QueryOp::kDist, QueryOp::kSubsequence}) {
    QueryOp parsed = QueryOp::k1Nn;
    ASSERT_TRUE(ParseQueryOp(QueryOpName(op), &parsed));
    EXPECT_EQ(parsed, op);
  }
  QueryOp ignored;
  EXPECT_FALSE(ParseQueryOp("2nn", &ignored));
}

}  // namespace
}  // namespace serve
}  // namespace warp
