// The one JSON module (util/json.hpp): the writer's two rules (string
// escaping, number text, the latter checked against snprintf("%.17g") on
// random bit patterns), the pull tokenizer's grammar and its rejections
// with their exact messages and byte offsets, the DOM built on it, and
// parse_request reading window numbers exactly as strtod does.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace {

using ef::json::Reader;
using Type = ef::json::Reader::Type;

std::string escaped(std::string_view text) {
  std::string out;
  ef::json::append_escaped(out, text);
  return out;
}

std::string number_text(double value) {
  std::string out;
  ef::json::append_number(out, value);
  return out;
}

std::string parse_error(std::string_view text) {
  std::string error;
  EXPECT_FALSE(ef::json::parse(text, error).has_value()) << text;
  return error;
}

// --- writer -----------------------------------------------------------------

TEST(Json, EscapesEveryAsciiByteByTheStringRule) {
  for (int byte = 0; byte < 0x80; ++byte) {
    const char c = static_cast<char>(byte);
    std::string want;
    switch (c) {
      case '"': want = "\\\""; break;
      case '\\': want = "\\\\"; break;
      case '\n': want = "\\n"; break;
      case '\r': want = "\\r"; break;
      case '\t': want = "\\t"; break;
      default:
        if (byte < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", static_cast<unsigned>(byte));
          want = buffer;
        } else {
          want = std::string(1, c);
        }
    }
    SCOPED_TRACE(byte);
    EXPECT_EQ(escaped(std::string_view(&c, 1)), want);
    // serve::json_escape is a forward to the same rule.
    EXPECT_EQ(ef::serve::json_escape(std::string_view(&c, 1)), want);
  }
  EXPECT_EQ(escaped("\b\f"), "\\u0008\\u000c");
  EXPECT_EQ(escaped("caf\xc3\xa9 \xff"), "caf\xc3\xa9 \xff") << "bytes >= 0x20 pass through";
}

TEST(Json, NumbersArePercent17gAndNonFiniteIsNull) {
  EXPECT_EQ(number_text(-0.0), "-0");
  EXPECT_EQ(number_text(1e-300), "1e-300");
  EXPECT_EQ(number_text(1e-310), "9.9999999999999694e-311");
  EXPECT_EQ(number_text(0.1), "0.10000000000000001");
  EXPECT_EQ(number_text(0.5), "0.5");
  EXPECT_EQ(number_text(3.0), "3");
  EXPECT_EQ(number_text(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number_text(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number_text(std::numeric_limits<double>::quiet_NaN()), "null");
}

/// snprintf("%.17g"), the number rule's definition.
std::string printf_17g(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

TEST(Json, NumbersEqualSnprintfOnRandomBitPatterns) {
  for (const double v : {DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN, 0.0,
                         -0.0, DBL_EPSILON, 1.0, 123456789012345678.0}) {
    EXPECT_EQ(number_text(v), printf_17g(v)) << printf_17g(v);
  }
  // A quarter of the draws have a zero exponent field: subnormals, and
  // ±0 when the mantissa bits are cleared too.
  ef::util::Rng rng(20261019);
  constexpr std::uint64_t kExponentMask = 0x7ff0000000000000ull;
  constexpr std::uint64_t kMantissaMask = 0x000fffffffffffffull;
  int mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    std::uint64_t bits = rng();
    if (i % 4 == 0) bits &= ~kExponentMask;
    if (i % 64 == 0) bits &= ~kMantissaMask;
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    const std::string want = std::isfinite(v) ? printf_17g(v) : "null";
    if (number_text(v) != want && ++mismatches <= 10) {
      ADD_FAILURE() << "bits " << bits << ": " << number_text(v) << " != " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Json, WriterPlacesCommasAndSplicesRawValues) {
  ef::json::Writer w;
  w.begin_object();
  w.key("a").value(1).key("b").begin_array().value(true).null().value("x").end_array();
  w.key("c").begin_object().end_object();
  w.key("d").raw("[1,2]").key("e").value(std::uint64_t{18446744073709551615u});
  w.key("f").value(std::int64_t{-7}).key("g").value(0.25).key("h").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(w.take(),
            R"({"a":1,"b":[true,null,"x"],"c":{},"d":[1,2],"e":18446744073709551615,"f":-7,"g":0.25,"h":[]})");
}

TEST(Json, DumpRoundTripsControlCharacters) {
  // dump used to write \b and \f; it now shares the writer's \u00xx form,
  // and the parser still decodes both spellings to the same bytes.
  std::string error;
  const auto doc = ef::json::parse(R"(["\b\f\u0008\u000c\/"])", error);
  ASSERT_TRUE(doc.has_value()) << error;
  const std::string once = ef::json::dump(*doc);
  EXPECT_EQ(once, R"(["\u0008\u000c\u0008\u000c/"])");
  const auto again = ef::json::parse(once, error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(ef::json::dump(*again), once);
}

// --- DOM ------------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  std::string error;
  const auto doc =
      ef::json::parse(R"({"a":1.5,"b":"x","c":[1,2,3],"d":true,"e":null})", error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto* object = doc->as_object();
  ASSERT_NE(object, nullptr);
  EXPECT_EQ(*object->at("a").as_number(), 1.5);
  EXPECT_EQ(*object->at("b").as_string(), "x");
  ASSERT_NE(object->at("c").as_array(), nullptr);
  EXPECT_EQ(object->at("c").as_array()->size(), 3u);
  EXPECT_TRUE(*object->at("d").as_bool());
  EXPECT_TRUE(object->at("e").is_null());
}

TEST(Json, DecodesEscapesAndSurrogatePairsToUtf8) {
  std::string error;
  const auto doc = ef::json::parse(R"("a\"\\\/\n\u00e9\ud83d\ude00")", error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(*doc->as_string(), "a\"\\/\n\xc3\xa9\xf0\x9f\x98\x80");
}

// --- rejections -------------------------------------------------------------

TEST(Json, RejectsDuplicateKeys) {
  EXPECT_EQ(parse_error(R"({"cmd":"ping","cmd":"stats"})"),
            "duplicate key \"cmd\" at byte 20");
  EXPECT_EQ(parse_error(R"({"a":1,"a":2})"), "duplicate key \"a\" at byte 11");
  EXPECT_EQ(parse_error(R"({"a":{"a":1,"a":2}})"), "duplicate key \"a\" at byte 16");
  // Escapes decode before the comparison.
  EXPECT_EQ(parse_error(R"({"a":1,"\u0061":2})"), "duplicate key \"a\" at byte 16");
}

TEST(Json, RejectsDuplicateKeysAmongManyKeys) {
  // Duplicates are found among many keys, and nested objects keep their
  // own key sets.
  std::string text = "{";
  for (int i = 0; i < 40; ++i) text += "\"k" + std::to_string(i) + "\":{\"k0\":1},";
  text += "\"k3\":0}";
  const std::string error = parse_error(text);
  EXPECT_EQ(error.rfind("duplicate key \"k3\" at byte ", 0), 0u) << error;

  text.replace(text.size() - 7, 4, "\"kx\"");
  std::string ok_error;
  EXPECT_TRUE(ef::json::parse(text, ok_error).has_value()) << ok_error;
}

TEST(Json, RejectsDuplicateKeysInTheSpilledSet) {
  // Past the first 16 keys an object's keys go to a set; a duplicate of a
  // spilled key is found there, and escaped keys go there from the start.
  std::string text = "{";
  for (int i = 0; i < 40; ++i) text += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
  const std::string prefix = text;
  text += "\"k30\":0}";
  EXPECT_EQ(parse_error(text), "duplicate key \"k30\" at byte " + std::to_string(text.size() - 2));
  EXPECT_EQ(parse_error(prefix + R"("\u006b39":0})"),
            "duplicate key \"k39\" at byte " + std::to_string(prefix.size() + 11));
  EXPECT_EQ(parse_error(R"({"\u0062":1,"a":2,"b":3})"), "duplicate key \"b\" at byte 22");
  EXPECT_EQ(parse_error(R"({"\u0062":1,"\u0061":2,"\u0062":3})"),
            "duplicate key \"b\" at byte 32");
  std::string error;
  EXPECT_TRUE(ef::json::parse(prefix + R"("\u006b40":0})", error).has_value()) << error;
}

TEST(Json, RejectsNumbersOverflowingDouble) {
  EXPECT_EQ(parse_error("1e999"), "non-finite number at byte 5");
  // One ulp past DBL_MAX rounds to infinity: from_chars refuses it, and the
  // strtod fallback keeps the message and offset.
  EXPECT_EQ(parse_error("1.7976931348623159e308"), "non-finite number at byte 22");
  EXPECT_EQ(parse_error("[1,1.7976931348623159e308]"), "non-finite number at byte 25");
  EXPECT_EQ(parse_error("-1e999"), "non-finite number at byte 6");
  EXPECT_EQ(parse_error("[1e999]"), "non-finite number at byte 6");
  EXPECT_EQ(parse_error(R"({"horizon":1e999})"), "non-finite number at byte 16");
}

TEST(Json, RejectsNestingBeyondMaxDepth) {
  // 20 nested arrays > kMaxDepth. Must fail, not overflow the stack.
  std::string deep;
  for (int i = 0; i < 20; ++i) deep += '[';
  deep += '1';
  for (int i = 0; i < 20; ++i) deep += ']';
  EXPECT_EQ(parse_error(deep), "nesting too deep at byte 9");

  // Depth counts values: nine empty nested arrays are fine, a value inside
  // the ninth is one level too deep.
  std::string error;
  EXPECT_TRUE(ef::json::parse("[[[[[[[[[]]]]]]]]]", error).has_value()) << error;
  EXPECT_EQ(parse_error("[1,[2,[3,[4,[5,[6,[7,[8,[9]]]]]]]]]"), "nesting too deep at byte 25");
}

TEST(Json, RejectsTrailingGarbageAndTruncation) {
  EXPECT_EQ(parse_error(R"({"a":1} extra)"), "trailing characters after JSON value at byte 8");
  EXPECT_EQ(parse_error(R"({"a":)"), "unexpected end of input at byte 5");
  EXPECT_EQ(parse_error(""), "unexpected end of input at byte 0");
  EXPECT_EQ(parse_error("  "), "unexpected end of input at byte 2");
  EXPECT_EQ(parse_error("["), "unexpected end of input at byte 1");
  EXPECT_EQ(parse_error("{"), "unexpected end of input at byte 1");
}

TEST(Json, RejectionMessagesCarryTheirByteOffsets) {
  EXPECT_EQ(parse_error("[1,]"), "expected a value at byte 3");
  EXPECT_EQ(parse_error("x"), "expected a value at byte 0");
  EXPECT_EQ(parse_error(R"({"a" 1})"), "expected ':' at byte 5");
  EXPECT_EQ(parse_error(R"({"a":1 "b":2})"), "expected ',' or '}' at byte 8");
  EXPECT_EQ(parse_error(R"({"a":1,})"), "expected '\"' at byte 7");
  EXPECT_EQ(parse_error("[1 2]"), "expected ',' or ']' at byte 4");
  EXPECT_EQ(parse_error("tru"), "bad literal at byte 0");
  EXPECT_EQ(parse_error("-"), "malformed number at byte 1");
  EXPECT_EQ(parse_error("+-1"), "malformed number at byte 3");
  EXPECT_EQ(parse_error("[1e5e]"), "malformed number at byte 5");
  EXPECT_EQ(parse_error("\"a\x01\""), "control character in string at byte 3");
  EXPECT_EQ(parse_error("\"abc"), "unterminated string at byte 4");
  EXPECT_EQ(parse_error(R"("\x")"), "bad escape at byte 3");
  EXPECT_EQ(parse_error(R"("\u12G4")"), "bad hex digit in \\u escape at byte 6");
  EXPECT_EQ(parse_error(R"("\ud800")"), "high surrogate not followed by \\u escape at byte 7");
  EXPECT_EQ(parse_error(R"("\udc00")"), "lone low surrogate at byte 7");
  EXPECT_EQ(parse_error(R"("\ud800\u0041")"), "invalid low surrogate at byte 13");
}

// --- pull reader ------------------------------------------------------------

TEST(Json, ReaderWalksTheDocumentInOrder) {
  Reader in(R"( {"k":[1,"s",true,false,null,{}],"z":-2} )");
  ASSERT_EQ(in.value(), Type::kObject);
  ASSERT_TRUE(in.next_key());
  EXPECT_EQ(in.text(), "k");
  ASSERT_EQ(in.value(), Type::kArray);
  std::vector<Type> items;
  while (in.next_element()) {
    items.push_back(in.value());
    if (items.back() == Type::kString) {
      EXPECT_EQ(in.text(), "s");
    }
    if (items.back() == Type::kObject) {
      EXPECT_FALSE(in.next_key());
    }
  }
  EXPECT_EQ(items, (std::vector<Type>{Type::kNumber, Type::kString, Type::kTrue, Type::kFalse,
                                      Type::kNull, Type::kObject}));
  ASSERT_TRUE(in.next_key());
  EXPECT_EQ(in.text(), "z");
  ASSERT_EQ(in.value(), Type::kNumber);
  EXPECT_EQ(in.number(), -2.0);
  EXPECT_FALSE(in.next_key());
  EXPECT_NO_THROW(in.finish());
}

TEST(Json, ReaderSkipsWholeValuesAndThrowsAtTheFirstError) {
  Reader in(R"({"a":[[1],{"b":2}],"c":3})");
  ASSERT_EQ(in.value(), Type::kObject);
  ASSERT_TRUE(in.next_key());
  in.skip(in.value());
  ASSERT_TRUE(in.next_key());
  EXPECT_EQ(in.text(), "c");

  Reader bad(R"([[1,2)");
  try {
    bad.skip(bad.value());
    ADD_FAILURE() << "truncated document accepted";
  } catch (const ef::json::Error& e) {
    EXPECT_STREQ(e.what(), "unexpected end of input at byte 5");
  }
}

// --- parse_request numbers ------------------------------------------------------

TEST(Json, WindowValuesEqualStrtodBitForBit) {
  // Tokens from_chars reads and tokens it refuses ('+', underflow to ±0)
  // alike; "-1e-400" must keep the sign of its zero.
  std::vector<std::string> texts = {"0",      "-0",        "1e-300",     "4.9e-324", "1e-400",
                                    "0.1",    "+1",        ".5",         "5.",       "01",
                                    "1E+2",   "2.5e-3",    "1.7976931348623157e308",
                                    "-1e-400", "2.2250738585072011e-308",
                                    "2.4703282292062328e-324", "+0.5e-1", "-.5"};
  // A long mantissa: from_chars reads it whole; with a '+' or an underflow
  // it falls back to strtod's heap copy (> 63 characters).
  texts.push_back("0." + std::string(80, '3') + "1");
  texts.push_back("+0." + std::string(80, '3') + "1");
  texts.push_back("-0." + std::string(80, '0') + "1e-300");
  ef::util::Rng rng(20261018);
  for (int i = 0; i < 500; ++i) {
    const int exponent = static_cast<int>(rng.index(2090)) - 1070;
    const double magnitude = std::ldexp(rng.uniform(0.5, 1.0), exponent);
    const double v = rng.bernoulli(0.5) ? -magnitude : magnitude;
    for (const char* format : {"%.17g", "%.6g", "%.25e"}) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), format, v);
      texts.emplace_back(buffer);
    }
  }
  std::string line = R"({"window":[)";
  for (std::size_t i = 0; i < texts.size(); ++i) line += (i ? "," : "") + texts[i];
  line += "]}";

  ef::serve::ProtocolError error;
  const auto request = ef::serve::parse_request(line, error);
  ASSERT_TRUE(request.has_value()) << error.message;
  ASSERT_EQ(request->predict.window.size(), texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const double want = std::strtod(texts[i].c_str(), nullptr);
    const double got = request->predict.window[i];
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0) << texts[i];
  }
}

}  // namespace
