// JsonValue DOM parser (json_parse) and JsonWriter edge cases: the parser
// backs the wire parsers and cts_simd's report merge and diff, so schema
// navigation errors must surface as typed exceptions; the writer must map non-finite doubles to null or our own
// validator would reject our own reports.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"

namespace obs = cts::obs;

namespace {

TEST(JsonParse, ScalarValues) {
  EXPECT_TRUE(obs::json_parse("null").is_null());
  EXPECT_TRUE(obs::json_parse("true").as_bool());
  EXPECT_FALSE(obs::json_parse("false").as_bool());
  EXPECT_DOUBLE_EQ(obs::json_parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(obs::json_parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, ObjectPreservesMemberOrder) {
  const obs::JsonValue v =
      obs::json_parse(R"({"z":1,"a":{"nested":[1,2,3]},"m":"s"})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.members[0].first, "z");
  EXPECT_EQ(v.members[1].first, "a");
  EXPECT_EQ(v.members[2].first, "m");
  EXPECT_DOUBLE_EQ(v.at("z").as_number(), 1.0);
  const obs::JsonValue& nested = v.at("a").at("nested");
  ASSERT_TRUE(nested.is_array());
  ASSERT_EQ(nested.size(), 3u);
  EXPECT_DOUBLE_EQ(nested.at(2).as_number(), 3.0);
}

TEST(JsonParse, FindReturnsNullptrForMissingOrNonObject) {
  const obs::JsonValue v = obs::json_parse(R"({"k":1})");
  EXPECT_NE(v.find("k"), nullptr);
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_EQ(obs::json_parse("[1]").find("k"), nullptr);
  EXPECT_THROW(v.at("absent"), cts::util::InvalidArgument);
  EXPECT_THROW(v.at(std::size_t{0}), cts::util::InvalidArgument);
}

TEST(JsonParse, TypeMismatchThrows) {
  const obs::JsonValue v = obs::json_parse(R"({"k":"text"})");
  EXPECT_THROW(v.at("k").as_number(), cts::util::InvalidArgument);
  EXPECT_THROW(v.at("k").as_bool(), cts::util::InvalidArgument);
  EXPECT_NO_THROW(v.at("k").as_string());
}

TEST(JsonParse, UnescapesStrings) {
  const obs::JsonValue v =
      obs::json_parse(R"("a\"b\\c\/d\n\tAé")");
  EXPECT_EQ(v.as_string(), "a\"b\\c/d\n\tA\xc3\xa9");
}

TEST(JsonParse, DecodesSurrogatePairs) {
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(obs::json_parse(R"("😀")").as_string(),
            "\xf0\x9f\x98\x80");
  // Lone high surrogate -> replacement character.
  EXPECT_EQ(obs::json_parse(R"("\ud83dx")").as_string(), "\xef\xbf\xbdx");
}

TEST(JsonParse, MalformedInputThrowsWithOffset) {
  try {
    obs::json_parse("{\"k\":1,}");
    FAIL() << "expected InvalidArgument";
  } catch (const cts::util::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
  EXPECT_THROW(obs::json_parse(""), cts::util::InvalidArgument);
  EXPECT_THROW(obs::json_parse("[1,2"), cts::util::InvalidArgument);
  EXPECT_THROW(obs::json_parse("1 2"), cts::util::InvalidArgument);
}

TEST(JsonParse, CheckedIntegersStayWithinTwoToThe53) {
  EXPECT_EQ(obs::json_parse("9007199254740992").as_int("x"),
            std::int64_t{9007199254740992});
  EXPECT_EQ(obs::json_parse("-9007199254740992").as_int("x"),
            -std::int64_t{9007199254740992});
  EXPECT_EQ(obs::json_parse("-3").as_int("x"), -3);
  EXPECT_THROW(obs::json_parse("9007199254740994").as_int("x"),
               cts::util::InvalidArgument);
  EXPECT_THROW(obs::json_parse("-0.5").as_int("x"),
               cts::util::InvalidArgument);
  EXPECT_THROW(obs::json_parse("-1").as_uint("x"), cts::util::InvalidArgument);
  EXPECT_THROW(obs::json_parse("\"1\"").as_int("x"),
               cts::util::InvalidArgument);
}

TEST(JsonParse, RoundTripsRunReportStyleDocument) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("cts.stats.v1");
  w.key("resources").begin_object();
  w.key("wall_s").value(1.25);
  w.key("max_rss_kb").value(std::int64_t{43210});
  w.end_object();
  w.end_object();
  const obs::JsonValue v = obs::json_parse(os.str());
  EXPECT_EQ(v.at("schema").as_string(), "cts.stats.v1");
  EXPECT_DOUBLE_EQ(v.at("resources").at("wall_s").as_number(), 1.25);
  EXPECT_DOUBLE_EQ(v.at("resources").at("max_rss_kb").as_number(), 43210.0);
}

// Satellite: a NaN/Inf metric must serialise as null, not as "nan"/"inf"
// (which RFC 8259 — and our own validator — reject).
TEST(JsonWriter, NonFiniteDoublesEmitNull) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("nan").value(std::nan(""));
  w.key("pinf").value(std::numeric_limits<double>::infinity());
  w.key("ninf").value(-std::numeric_limits<double>::infinity());
  w.key("finite").value(2.5);
  w.end_object();
  EXPECT_EQ(os.str(), R"({"nan":null,"pinf":null,"ninf":null,"finite":2.5})");

  std::string error;
  EXPECT_TRUE(obs::json_parse_check(os.str(), &error)) << error;
  const obs::JsonValue v = obs::json_parse(os.str());
  EXPECT_TRUE(v.at("nan").is_null());
  EXPECT_TRUE(v.at("pinf").is_null());
  EXPECT_TRUE(v.at("ninf").is_null());
}

}  // namespace
