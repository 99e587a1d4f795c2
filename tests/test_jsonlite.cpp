// obs/jsonlite edge cases: nesting-depth cap (bomb inputs are rejected
// instead of overflowing the C++ stack), \uXXXX escapes including
// surrogate pairs, truncated documents, duplicate-key objects (document
// order kept, find() returns the first), the string writer's round trip
// of every ASCII byte, and the Writer's commas and number rule. valid()
// is parse() with the tree discarded, so every hostile input must get the
// same verdict from both.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "obs/jsonlite.hpp"

namespace svsim {
namespace {

using obs::jsonlite::Value;

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

/// valid() and parse() are one parser: their verdicts agree.
void expect_verdict(const std::string& text, bool ok) {
  Value v;
  EXPECT_EQ(obs::jsonlite::valid(text), ok) << text;
  EXPECT_EQ(obs::jsonlite::parse(text, &v), ok) << text;
}

std::string nested_objects(int depth) {
  std::string s;
  for (int i = 0; i < depth; ++i) s += "{\"k\":";
  s += "1";
  for (int i = 0; i < depth; ++i) s += "}";
  return s;
}

TEST(JsonliteDepth, AcceptsUpToTheCapAndRejectsBeyond) {
  constexpr int kCap = obs::jsonlite::detail::kMaxDepth;
  expect_verdict(nested_arrays(kCap), true);
  expect_verdict(nested_objects(kCap), true);
  expect_verdict(nested_arrays(kCap + 1), false);
  expect_verdict(nested_objects(kCap + 1), false);
}

TEST(JsonliteDepth, BombInputReturnsFalseInsteadOfCrashing) {
  // A few KB of '[' would previously recurse a few thousand frames deep.
  expect_verdict(std::string(100000, '['), false);
  // Depth is counted per value, not per document: many shallow siblings
  // are fine.
  std::string wide = "[";
  for (int i = 0; i < 5000; ++i) wide += "[1],";
  wide += "[1]]";
  expect_verdict(wide, true);
}

TEST(JsonliteUnicode, DecodesBasicEscapes) {
  Value v;
  ASSERT_TRUE(obs::jsonlite::parse(R"("Aé€")", &v));
  ASSERT_EQ(v.type, Value::Type::kString);
  // A (1 byte), é (2 bytes), € (3 bytes).
  EXPECT_EQ(v.str, "A\xc3\xa9\xe2\x82\xac");
}

TEST(JsonliteUnicode, DecodesSurrogatePairs) {
  Value v;
  ASSERT_TRUE(obs::jsonlite::parse(R"("😀")", &v)); // U+1F600
  EXPECT_EQ(v.str, "\xf0\x9f\x98\x80");
  // A lone high surrogate is kept as its raw code unit, not an error.
  ASSERT_TRUE(obs::jsonlite::parse(R"("\ud800x")", &v));
  EXPECT_EQ(v.str, "\xed\xa0\x80x");
  // High surrogate followed by a non-low \u escape: both decode as-is.
  ASSERT_TRUE(obs::jsonlite::parse(R"("\ud800A")", &v));
  EXPECT_EQ(v.str, "\xed\xa0\x80"
                   "A");
}

TEST(JsonliteUnicode, RejectsMalformedEscapes) {
  expect_verdict(R"("\u00zz")", false);
  expect_verdict(R"("\u12")", false);
  expect_verdict(R"("\x41")", false);
}

TEST(JsonliteTruncated, EveryPrefixOfAValidDocumentFails) {
  const std::string doc =
      R"({"a":[1,2.5e-3,"x\n",true,null],"b":{"c":"😀"}})";
  ASSERT_TRUE(obs::jsonlite::valid(doc));
  Value v;
  for (std::size_t len = 0; len < doc.size(); ++len) {
    const std::string prefix = doc.substr(0, len);
    std::size_t off = 0;
    EXPECT_FALSE(obs::jsonlite::valid(prefix, &off)) << "len=" << len;
    EXPECT_LE(off, prefix.size()) << "len=" << len;
    EXPECT_FALSE(obs::jsonlite::parse(prefix, &v)) << "len=" << len;
  }
}

TEST(JsonliteTruncated, CutLiteralsAndNumbersFail) {
  for (const char* cut : {"tru", "nul", "12e", "1.", "-", "\"abc", "\"abc\\"}) {
    expect_verdict(cut, false);
  }
}

TEST(JsonliteDuplicates, ObjectKeepsBothMembersFindReturnsFirst) {
  Value v;
  ASSERT_TRUE(obs::jsonlite::parse(R"({"k":1,"k":2,"other":3})", &v));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.members.size(), 3u);
  const Value* k = v.find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->num_or(-1), 1.0); // document order: first wins
  EXPECT_EQ(v.member_num("other", -1), 3.0);
}

// quote() is the writer every emitter shares: each byte 0x01-0x7f, alone
// and all in one string, parses back to itself, with the short escapes
// where JSON has them and \u00XX for the other control bytes.
TEST(JsonliteQuote, RoundTripsEveryAsciiByte) {
  using obs::jsonlite::quote;
  std::string all;
  for (int b = 0x01; b <= 0x7f; ++b) {
    const std::string one(1, static_cast<char>(b));
    all += one;
    Value v;
    ASSERT_TRUE(obs::jsonlite::parse(quote(one), &v)) << "byte " << b;
    EXPECT_EQ(v.str, one) << "byte " << b;
  }
  Value v;
  ASSERT_TRUE(obs::jsonlite::parse(quote(all), &v));
  EXPECT_EQ(v.str, all);
  EXPECT_EQ(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(quote("\t\n\r"), "\"\\t\\n\\r\"");
  EXPECT_EQ(quote("\x01\x1f"), "\"\\u0001\\u001f\"");
}

// The one number rule: integers as integers, finite doubles as %.17g,
// non-finite doubles as null.
TEST(JsonliteWriter, OneNumberRule) {
  obs::jsonlite::Writer w;
  w.begin_array()
      .value(0)
      .value(-42)
      .value(std::uint64_t{18446744073709551615ull})
      .value(std::int64_t{-9223372036854775807LL - 1})
      .value(220.0)
      .value(0.1)
      .value(1e300)
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .end_array();
  EXPECT_EQ(w.take(),
            "[0,-42,18446744073709551615,-9223372036854775808,220,"
            "0.10000000000000001,1.0000000000000001e+300,null,null,null]");
}

TEST(JsonliteWriter, ScopesPlaceCommasAndQuoteStrings) {
  obs::jsonlite::Writer w;
  w.begin_object()
      .field("a", 1)
      .field("s", "x\"y")
      .field("t", true)
      .key("e")
      .begin_array()
      .end_array()
      .key("o")
      .begin_object()
      .field("n", std::string("v"))
      .end_object()
      .key("z")
      .null()
      .end_object();
  EXPECT_EQ(w.take(),
            R"({"a":1,"s":"x\"y","t":true,"e":[],"o":{"n":"v"},"z":null})");
  // newline() breaks the line before the next element or bracket, after
  // the comma.
  obs::jsonlite::Writer rows;
  rows.begin_array().newline().value(1).newline().value(2);
  rows.newline().end_array();
  EXPECT_EQ(rows.take(), "[\n1,\n2\n]");
}

// write() re-emits a parsed document under the same rules: the bytes of a
// canonical document survive, and an overflowing number becomes null.
TEST(JsonliteWriter, WriteRoundTripsParsedValues) {
  const std::string doc =
      R"({"a":[1,-2.5,"x\ny",true,false,null],"b":{"c":{}},"d":[]})";
  Value v;
  ASSERT_TRUE(obs::jsonlite::parse(doc, &v));
  obs::jsonlite::Writer w;
  w.write(v);
  EXPECT_EQ(w.take(), doc);

  ASSERT_TRUE(obs::jsonlite::parse(R"({"dur":1e999,"ts":-1e999})", &v));
  obs::jsonlite::Writer inf;
  inf.write(v);
  EXPECT_EQ(inf.take(), R"({"dur":null,"ts":null})");
}

} // namespace
} // namespace svsim
