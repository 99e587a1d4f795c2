// obs/jsonlite edge cases: nesting-depth cap (both the validator and the
// tree builder must reject bomb inputs instead of overflowing the C++
// stack), \uXXXX escapes including surrogate pairs, truncated documents,
// duplicate-key objects (document order kept, find() returns the first),
// and the string writer's round trip of every ASCII byte.
#include <gtest/gtest.h>

#include <string>

#include "obs/jsonlite.hpp"

namespace svsim {
namespace {

using obs::jsonlite::Value;

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
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
  EXPECT_TRUE(obs::jsonlite::valid(nested_arrays(kCap)));
  EXPECT_TRUE(obs::jsonlite::valid(nested_objects(kCap)));
  EXPECT_FALSE(obs::jsonlite::valid(nested_arrays(kCap + 1)));
  EXPECT_FALSE(obs::jsonlite::valid(nested_objects(kCap + 1)));

  Value v;
  EXPECT_TRUE(obs::jsonlite::parse(nested_arrays(kCap), &v));
  EXPECT_FALSE(obs::jsonlite::parse(nested_arrays(kCap + 1), &v));
  EXPECT_TRUE(obs::jsonlite::parse(nested_objects(kCap), &v));
  EXPECT_FALSE(obs::jsonlite::parse(nested_objects(kCap + 1), &v));
}

TEST(JsonliteDepth, BombInputReturnsFalseInsteadOfCrashing) {
  // A few KB of '[' would previously recurse a few thousand frames deep.
  EXPECT_FALSE(obs::jsonlite::valid(std::string(100000, '[')));
  Value v;
  EXPECT_FALSE(obs::jsonlite::parse(std::string(100000, '['), &v));
  // Depth is counted per value, not per document: many shallow siblings
  // are fine.
  std::string wide = "[";
  for (int i = 0; i < 5000; ++i) wide += "[1],";
  wide += "[1]]";
  EXPECT_TRUE(obs::jsonlite::valid(wide));
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
  EXPECT_FALSE(obs::jsonlite::valid(R"("\u00zz")"));
  EXPECT_FALSE(obs::jsonlite::valid(R"("\u12")"));
  EXPECT_FALSE(obs::jsonlite::valid(R"("\x41")"));
  Value v;
  EXPECT_FALSE(obs::jsonlite::parse(R"("\u00zz")", &v));
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
  EXPECT_FALSE(obs::jsonlite::valid("tru"));
  EXPECT_FALSE(obs::jsonlite::valid("nul"));
  EXPECT_FALSE(obs::jsonlite::valid("12e"));
  EXPECT_FALSE(obs::jsonlite::valid("1."));
  EXPECT_FALSE(obs::jsonlite::valid("-"));
  EXPECT_FALSE(obs::jsonlite::valid("\"abc"));
  EXPECT_FALSE(obs::jsonlite::valid("\"abc\\"));
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

} // namespace
} // namespace svsim
