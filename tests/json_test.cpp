#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "json/merge_patch.hpp"
#include "json/parse.hpp"
#include "json/pointer.hpp"
#include "json/schema.hpp"
#include "json/serialize.hpp"
#include "json/value.hpp"

namespace ofmf::json {
namespace {

using ::testing::HasSubstr;

// ----------------------------------------------------------------- Value ---

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(3).is_int());
  EXPECT_TRUE(Json(3.5).is_double());
  EXPECT_TRUE(Json(3).is_number());
  EXPECT_TRUE(Json("x").is_string());
  EXPECT_TRUE(Json::MakeArray().is_array());
  EXPECT_TRUE(Json::MakeObject().is_object());
  EXPECT_DOUBLE_EQ(Json(3).as_double(), 3.0);
}

TEST(ValueTest, ObjectPreservesInsertionOrder) {
  Json obj = Json::Obj({{"z", 1}, {"a", 2}, {"m", 3}});
  std::vector<std::string> keys;
  for (const auto& [k, v] : obj.as_object()) {
    (void)v;
    keys.push_back(k);
  }
  EXPECT_THAT(keys, ::testing::ElementsAre("z", "a", "m"));
}

TEST(ValueTest, ObjectSetOverwritesInPlace) {
  Json obj = Json::Obj({{"a", 1}, {"b", 2}});
  obj.as_object().Set("a", 10);
  EXPECT_EQ(obj.at("a").as_int(), 10);
  EXPECT_EQ(obj.as_object().size(), 2u);
}

TEST(ValueTest, EqualityIsOrderInsensitiveForObjects) {
  EXPECT_EQ(Json::Obj({{"a", 1}, {"b", 2}}), Json::Obj({{"b", 2}, {"a", 1}}));
  EXPECT_NE(Json::Obj({{"a", 1}}), Json::Obj({{"a", 2}}));
}

TEST(ValueTest, AtReturnsNullForMissing) {
  const Json obj = Json::Obj({{"a", 1}});
  EXPECT_TRUE(obj.at("missing").is_null());
  EXPECT_TRUE(Json(5).at("anything").is_null());
}

TEST(ValueTest, IndexOperatorInsertsNull) {
  Json obj = Json::MakeObject();
  obj["new"] = "value";
  EXPECT_EQ(obj.at("new").as_string(), "value");
}

TEST(ValueTest, ObjMovesValuesInsteadOfCopying) {
  Array big(1000, Json(7));
  const Json* const elements = big.data();
  const Json doc = Json::Obj({{"Name", "dump"}, {"Histograms", Json(std::move(big))}});
  // The object owns the very buffer the caller built: no deep copy was made.
  EXPECT_EQ(doc.at("Histograms").as_array().data(), elements);
  EXPECT_EQ(doc.at("Histograms").as_array().size(), 1000u);
  // Later duplicates still overwrite earlier ones.
  EXPECT_EQ(Json::Obj({{"a", 1}, {"a", 2}}), Json::Obj({{"a", 2}}));
}

TEST(ValueTest, GettersWithFallback) {
  const Json obj = Json::Obj({{"s", "str"}, {"i", 9}, {"d", 2.5}, {"b", true}});
  EXPECT_EQ(obj.GetString("s"), "str");
  EXPECT_EQ(obj.GetString("nope", "fb"), "fb");
  EXPECT_EQ(obj.GetInt("i"), 9);
  EXPECT_EQ(obj.GetInt("d"), 2);  // double truncates
  EXPECT_DOUBLE_EQ(obj.GetDouble("d"), 2.5);
  EXPECT_DOUBLE_EQ(obj.GetDouble("i"), 9.0);
  EXPECT_TRUE(obj.GetBool("b"));
  EXPECT_TRUE(obj.GetBool("nope", true));
}

// ----------------------------------------------------------------- Parse ---

TEST(ParseTest, Scalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_EQ(Parse("true")->as_bool(), true);
  EXPECT_EQ(Parse("false")->as_bool(), false);
  EXPECT_EQ(Parse("42")->as_int(), 42);
  EXPECT_EQ(Parse("-17")->as_int(), -17);
  EXPECT_DOUBLE_EQ(Parse("3.25")->as_double(), 3.25);
  EXPECT_DOUBLE_EQ(Parse("1e3")->as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(Parse("-2.5E-2")->as_double(), -0.025);
  EXPECT_EQ(Parse("\"hi\"")->as_string(), "hi");
}

TEST(ParseTest, NestedStructure) {
  auto doc = Parse(R"({"a":[1,2,{"b":null}],"c":{"d":true}})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->at("a").as_array().size(), 3u);
  EXPECT_TRUE(doc->at("a").as_array()[2].at("b").is_null());
  EXPECT_TRUE(doc->at("c").at("d").as_bool());
}

TEST(ParseTest, StringEscapes) {
  EXPECT_EQ(Parse(R"("a\"b\\c\/d\n\t")")->as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(Parse(R"("A")")->as_string(), "A");
  EXPECT_EQ(Parse(R"("é")")->as_string(), "\xC3\xA9");          // é
  EXPECT_EQ(Parse(R"("中")")->as_string(), "\xE4\xB8\xAD");      // 中
  EXPECT_EQ(Parse(R"("😀")")->as_string(), "\xF0\x9F\x98\x80");  // 😀
}

TEST(ParseTest, WhitespaceTolerant) {
  auto doc = Parse(" \n\t{ \"a\" : [ 1 , 2 ] } \r\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->at("a").as_array().size(), 2u);
}

TEST(ParseTest, IntegerOverflowBecomesDouble) {
  auto doc = Parse("99999999999999999999999999");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->is_double());
  EXPECT_GT(doc->as_double(), 1e25);
}

struct BadJsonCase {
  const char* name;
  const char* text;
};

class ParseRejects : public ::testing::TestWithParam<BadJsonCase> {};

TEST_P(ParseRejects, Input) {
  auto result = Parse(GetParam().text);
  EXPECT_FALSE(result.ok()) << GetParam().text;
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ParseRejects,
    ::testing::Values(
        BadJsonCase{"empty", ""}, BadJsonCase{"bare_word", "nope"},
        BadJsonCase{"trailing", "1 2"}, BadJsonCase{"trailing_comma_obj", "{\"a\":1,}"},
        BadJsonCase{"trailing_comma_arr", "[1,]"}, BadJsonCase{"unclosed_obj", "{\"a\":1"},
        BadJsonCase{"unclosed_str", "\"abc"}, BadJsonCase{"leading_zero", "012"},
        BadJsonCase{"bare_minus", "-"}, BadJsonCase{"dot_no_digits", "1."},
        BadJsonCase{"bad_escape", "\"\\x\""}, BadJsonCase{"control_char", "\"a\nb\""},
        BadJsonCase{"lone_high_surrogate", R"("\ud83d")"},
        BadJsonCase{"lone_low_surrogate", R"("\ude00")"},
        BadJsonCase{"colon_missing", "{\"a\" 1}"},
        BadJsonCase{"nonstring_key", "{1:2}"}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(ParseTest, DepthLimitEnforced) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  ParseOptions opts;
  opts.max_depth = 64;
  EXPECT_FALSE(Parse(deep, opts).ok());
  // And within the limit it parses.
  std::string shallow = "[[[[[1]]]]]";
  EXPECT_TRUE(Parse(shallow, opts).ok());
}

// ------------------------------------------------------------- Serialize ---

TEST(SerializeTest, CompactForms) {
  EXPECT_EQ(Serialize(Json()), "null");
  EXPECT_EQ(Serialize(Json(true)), "true");
  EXPECT_EQ(Serialize(Json(-5)), "-5");
  EXPECT_EQ(Serialize(Json("a\"b")), "\"a\\\"b\"");
  EXPECT_EQ(Serialize(Json::Arr({1, 2})), "[1,2]");
  EXPECT_EQ(Serialize(Json::Obj({{"a", 1}})), "{\"a\":1}");
  EXPECT_EQ(Serialize(Json::MakeObject()), "{}");
  EXPECT_EQ(Serialize(Json::MakeArray()), "[]");
}

TEST(SerializeTest, DoublesRoundTripAndStayDoubles) {
  for (double v : {0.1, 1.0 / 3.0, 1e-300, 123456.789, -2.0}) {
    const std::string s = Serialize(Json(v));
    auto parsed = Parse(s);
    ASSERT_TRUE(parsed.ok()) << s;
    EXPECT_TRUE(parsed->is_double()) << s;
    EXPECT_DOUBLE_EQ(parsed->as_double(), v) << s;
  }
}

TEST(SerializeTest, NanAndInfBecomeNull) {
  EXPECT_EQ(Serialize(Json(std::nan(""))), "null");
  EXPECT_EQ(Serialize(Json(std::numeric_limits<double>::infinity())), "null");
}

// Parse(Serialize(x)) must give back x's exact bits, as a double, for every
// finite double: the shortest form the serializer writes has to round-trip.
void ExpectBitExactRoundTrip(double v) {
  const std::string s = Serialize(Json(v));
  auto parsed = Parse(s);
  ASSERT_TRUE(parsed.ok()) << s;
  ASSERT_TRUE(parsed->is_double()) << s;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->as_double()), std::bit_cast<std::uint64_t>(v))
      << s;
}

TEST(SerializeTest, DoublesRoundTripBitExact) {
  for (double v : {0.0, -0.0, 5e-324, -5e-324, DBL_MIN, DBL_MAX, -DBL_MAX, 0.1, 1.0 / 3.0, 1e-5,
                   1e21, 9007199254740993.0 /* 2^53+1, rounds to 2^53 */, 100.0, -2.0,
                   123456789012345680.0}) {
    ExpectBitExactRoundTrip(v);
  }
  Rng rng(20230515);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::bit_cast<double>(rng.NextU64());
    if (!std::isfinite(v)) continue;  // NaN and Inf serialize as null
    ExpectBitExactRoundTrip(v);
  }
}

TEST(SerializeTest, WholeDoublesKeepTheirFraction) {
  EXPECT_EQ(Serialize(Json(100.0)), "100.0");
  EXPECT_EQ(Serialize(Json(-0.0)), "-0.0");
  EXPECT_EQ(Serialize(Json(1e21)), "1e+21");
}

TEST(ParseTest, OutOfRangeNumbers) {
  // Underflow rounds to zero, as strtod does; overflow is an error.
  auto tiny = Parse("1e-400");
  ASSERT_TRUE(tiny.ok());
  EXPECT_TRUE(tiny->is_double());
  EXPECT_EQ(tiny->as_double(), 0.0);
  for (const char* huge : {"1e400", "-1e400", "[1.5e999]"}) {
    auto result = Parse(huge);
    EXPECT_FALSE(result.ok()) << huge;
    EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument) << huge;
  }
  // Subnormals are in range and keep their value.
  EXPECT_EQ(Parse("4.9406564584124654e-324")->as_double(), 5e-324);
}

TEST(SerializeTest, PrettyIsIndentedAndReparses) {
  const Json doc = Json::Obj({{"a", Json::Arr({1, 2})}, {"b", Json::Obj({{"c", true}})}});
  const std::string pretty = SerializePretty(doc);
  EXPECT_THAT(pretty, HasSubstr("\n  \"a\": [\n"));
  auto round = Parse(pretty);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*round, doc);
}

TEST(SerializeTest, ControlCharsEscaped) {
  EXPECT_EQ(Serialize(Json(std::string("\x01"))), "\"\\u0001\"");
  EXPECT_EQ(QuoteString("tab\there"), "\"tab\\there\"");
}

TEST(SerializeTest, OnlyControlsQuoteAndBackslashAreEscaped) {
  // Plain runs around an escape are copied whole; DEL and UTF-8 pass as is.
  EXPECT_EQ(Serialize(Json(std::string("ab\x1f\x7f\xC3\xA9\"cd\\"))),
            "\"ab\\u001f\x7f\xC3\xA9\\\"cd\\\\\"");
}

// Property: random documents round-trip byte-compare after one normalization.
Json RandomJson(Rng& rng, int depth) {
  const int pick = depth > 3 ? static_cast<int>(rng.UniformInt(0, 3))
                             : static_cast<int>(rng.UniformInt(0, 5));
  switch (pick) {
    case 0: return Json();
    case 1: return Json(rng.Chance(0.5));
    case 2: return Json(static_cast<std::int64_t>(rng.NextU64() >> 12));
    case 3: {
      std::string s;
      const std::size_t len = rng.UniformInt(0, 12);
      for (std::size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng.UniformInt(32, 126)));
      }
      return Json(std::move(s));
    }
    case 4: {
      Array arr;
      const std::size_t n = rng.UniformInt(0, 4);
      for (std::size_t i = 0; i < n; ++i) arr.push_back(RandomJson(rng, depth + 1));
      return Json(std::move(arr));
    }
    default: {
      Object obj;
      const std::size_t n = rng.UniformInt(0, 4);
      for (std::size_t i = 0; i < n; ++i) {
        obj.Set("k" + std::to_string(i), RandomJson(rng, depth + 1));
      }
      return Json(std::move(obj));
    }
  }
}

class JsonRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(JsonRoundTrip, SerializeParseSerializeIsStable) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int i = 0; i < 50; ++i) {
    const Json doc = RandomJson(rng, 0);
    const std::string once = Serialize(doc);
    auto parsed = Parse(once);
    ASSERT_TRUE(parsed.ok()) << once;
    EXPECT_EQ(*parsed, doc);
    EXPECT_EQ(Serialize(*parsed), once);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip, ::testing::Range(1, 9));

// ------------------------------------------------------------------ Fuzz ---
// Seeded mutation fuzzing of Parse, which every request body and every shard
// MetricsDump goes through. A fixed number of mutants per seed keeps the run
// short enough for tier-1; sanitizer builds turn any UB into a failure.

// Level of the deepest value; the top-level value is level 0.
std::size_t NestingLevel(const Json& v) {
  std::size_t deepest = 0;
  if (v.is_array()) {
    for (const Json& item : v.as_array()) deepest = std::max(deepest, 1 + NestingLevel(item));
  } else if (v.is_object()) {
    for (const auto& [key, item] : v.as_object()) {
      deepest = std::max(deepest, 1 + NestingLevel(item));
    }
  }
  return deepest;
}

// The document shapes the OFMF parses most: a shard MetricsDump, a
// collection page, a Compose body, and strings full of escapes.
std::vector<std::string> FuzzCorpus() {
  Array histograms;
  for (int h = 0; h < 4; ++h) {
    Array buckets(12);
    for (int b = 0; b < 12; ++b) buckets[b] = Json(b * b * (h + 1));
    histograms.push_back(Json::Obj({{"Name", "ofmf.handle_us.get" + std::to_string(h)},
                                    {"Count", 144},
                                    {"Sum", 98765},
                                    {"Mean", 685.868},
                                    {"P50", 512.0},
                                    {"P95", 3e3},
                                    {"P99", 1.25e-3},
                                    {"Buckets", Json(std::move(buckets))}}));
  }
  const Json dump = Json::Obj(
      {{"ShardId", "shard-1"},
       {"Histograms", Json(std::move(histograms))},
       {"Counters", Json::Arr({Json::Obj({{"Name", "http.requests"}, {"Value", 4096}})})},
       {"ResponseCache", Json::Obj({{"Hits", 10}, {"HitRate", 0.9090909090909091}})}});
  return {
      Serialize(dump),
      R"({"@odata.id":"/redfish/v1/Fabrics/NVMeoF/Endpoints","Members@odata.count":2,)"
      R"("Members":[{"@odata.id":"/redfish/v1/Fabrics/NVMeoF/Endpoints/e0"},)"
      R"({"@odata.id":"/redfish/v1/Fabrics/NVMeoF/Endpoints/e1"}],)"
      R"("@odata.nextLink":"/redfish/v1/Fabrics?$fedskip=shard-1:2"})",
      R"({"Name":"bb-job-42","Links":{"ResourceBlocks":[)"
      R"({"@odata.id":"/redfish/v1/CompositionService/ResourceBlocks/ssd-0"},)"
      R"({"@odata.id":"/redfish/v1/CompositionService/ResourceBlocks/ssd-1"}]},)"
      R"("Oem":{"Ofmf":{"Capacity":-1.5E+3,"Exclusive":true,"Tags":null}}})",
      R"(["esc \" \\ \/ \b\f\n\r\t", "\u00e9\u4e2d\ud83d\ude00 é中😀", "\u0000\u001F", "",)"
      R"( [[], {}], -0, 0.5e-3, 12345678901234567890])",
  };
}

std::string Mutate(Rng& rng, const std::vector<std::string>& corpus, std::string text) {
  static constexpr std::string_view kTokens = "{}[]:,\"\\/0123456789-+.eEtrufalsn u";
  auto pos = [&](std::size_t size) { return static_cast<std::size_t>(rng.UniformInt(0, size)); };
  const int edits = static_cast<int>(rng.UniformInt(1, 4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = pos(text.size());
    const char token = kTokens[rng.UniformInt(0, kTokens.size() - 1)];
    switch (rng.UniformInt(0, 7)) {
      case 0:  // flip one bit
        if (at < text.size()) text[at] = static_cast<char>(text[at] ^ (1 << rng.UniformInt(0, 7)));
        break;
      case 1:  // overwrite with a JSON token character
        if (at < text.size()) text[at] = token;
        break;
      case 2:  // insert a JSON token character
        text.insert(at, 1, token);
        break;
      case 3:  // delete a short range
        text.erase(at, rng.UniformInt(1, 8));
        break;
      case 4:  // duplicate a range elsewhere
        text.insert(pos(text.size()), text.substr(at, rng.UniformInt(1, 32)));
        break;
      case 5:  // truncate
        text.resize(at);
        break;
      case 6: {  // splice in a piece of another corpus document
        const std::string& other = corpus[rng.UniformInt(0, corpus.size() - 1)];
        const std::size_t from = pos(other.size());
        text.replace(at, rng.UniformInt(0, 16), other.substr(from, rng.UniformInt(1, 64)));
        break;
      }
      default:  // open a deep nest, to press on the depth cap
        for (std::uint64_t n = rng.UniformInt(8, 40); n > 0; --n) {
          text.insert(at, rng.Chance(0.5) ? "[" : "{\"k\":");
        }
    }
  }
  return text;
}

class ParseFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParseFuzz, MutantsAreRejectedCleanlyOrRoundTrip) {
  constexpr int kMutants = 20000;
  ParseOptions options;
  options.max_depth = 16;
  const std::vector<std::string> corpus = FuzzCorpus();
  for (const std::string& doc : corpus) ASSERT_TRUE(Parse(doc, options).ok()) << doc;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6700417);
  int accepted = 0;
  int depth_rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text =
        Mutate(rng, corpus, corpus[rng.UniformInt(0, corpus.size() - 1)]);
    auto parsed = Parse(text, options);
    if (!parsed.ok()) {
      ASSERT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument) << text;
      if (parsed.status().message().find("depth") != std::string::npos) ++depth_rejected;
      continue;
    }
    ++accepted;
    ASSERT_LE(NestingLevel(*parsed), options.max_depth) << text;
    const std::string once = Serialize(*parsed);
    auto again = Parse(once, options);
    ASSERT_TRUE(again.ok()) << text << " -> " << once;
    ASSERT_EQ(*again, *parsed) << text << " -> " << once;
    ASSERT_EQ(Serialize(*again), once) << text;
  }
  // Both sides of the parser were exercised, the depth cap included.
  EXPECT_GT(accepted, kMutants / 50);
  EXPECT_LT(accepted, kMutants / 2);
  EXPECT_GT(depth_rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParseFuzz, ::testing::Range(1, 6));

// --------------------------------------------------------------- Pointer ---

TEST(PointerTest, ResolveBasics) {
  auto doc = *Parse(R"({"Members":[{"Name":"a"},{"Name":"b"}],"x~y":1,"a/b":2})");
  EXPECT_EQ(ResolvePointer(doc, "/Members/1/Name")->as_string(), "b");
  EXPECT_EQ(ResolvePointer(doc, "/x~0y")->as_int(), 1);
  EXPECT_EQ(ResolvePointer(doc, "/a~1b")->as_int(), 2);
  EXPECT_EQ(ResolvePointer(doc, "")->at("x~y").as_int(), 1);  // whole doc
}

TEST(PointerTest, ResolveErrors) {
  auto doc = *Parse(R"({"a":[1]})");
  EXPECT_EQ(ResolvePointer(doc, "/missing").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(ResolvePointer(doc, "/a/5").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(ResolvePointer(doc, "/a/x").status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(SplitPointer("no-slash").ok());
  EXPECT_EQ(ResolvePointerRef(doc, "/a/0/deeper"), nullptr);
}

TEST(PointerTest, SetCreatesIntermediateObjects) {
  Json doc = Json::MakeObject();
  ASSERT_TRUE(SetPointer(doc, "/a/b/c", 42).ok());
  EXPECT_EQ(ResolvePointer(doc, "/a/b/c")->as_int(), 42);
}

TEST(PointerTest, SetArrayAppendAndIndex) {
  Json doc = *Parse(R"({"arr":[1,2]})");
  ASSERT_TRUE(SetPointer(doc, "/arr/-", 3).ok());
  ASSERT_TRUE(SetPointer(doc, "/arr/0", 9).ok());
  EXPECT_EQ(Serialize(doc.at("arr")), "[9,2,3]");
  EXPECT_FALSE(SetPointer(doc, "/arr/9", 0).ok());
}

TEST(PointerTest, SetWholeDocument) {
  Json doc = Json(1);
  ASSERT_TRUE(SetPointer(doc, "", Json("whole")).ok());
  EXPECT_EQ(doc.as_string(), "whole");
}

TEST(PointerTest, RemoveMemberAndElement) {
  Json doc = *Parse(R"({"a":1,"arr":[1,2,3]})");
  ASSERT_TRUE(RemovePointer(doc, "/a").ok());
  EXPECT_FALSE(doc.Contains("a"));
  ASSERT_TRUE(RemovePointer(doc, "/arr/1").ok());
  EXPECT_EQ(Serialize(doc.at("arr")), "[1,3]");
  EXPECT_FALSE(RemovePointer(doc, "/arr/7").ok());
  EXPECT_FALSE(RemovePointer(doc, "").ok());
}

TEST(PointerTest, EscapeTokenInverse) {
  EXPECT_EQ(EscapeToken("a/b~c"), "a~1b~0c");
}

// Property: every leaf of a random document is reachable by the pointer
// built from its path, including keys needing ~0/~1 escapes.
void EnumerateLeaves(const Json& node, const std::string& pointer,
                     std::vector<std::pair<std::string, Json>>& leaves) {
  if (node.is_object()) {
    for (const auto& [k, v] : node.as_object()) {
      EnumerateLeaves(v, pointer + "/" + EscapeToken(k), leaves);
    }
  } else if (node.is_array()) {
    const auto& arr = node.as_array();
    for (std::size_t i = 0; i < arr.size(); ++i) {
      EnumerateLeaves(arr[i], pointer + "/" + std::to_string(i), leaves);
    }
  } else {
    leaves.emplace_back(pointer, node);
  }
}

class PointerProperty : public ::testing::TestWithParam<int> {};

TEST_P(PointerProperty, EveryLeafResolvesByItsPointer) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  for (int round = 0; round < 20; ++round) {
    Json doc = RandomJson(rng, 0);
    // Add pathological keys at the top level when it's an object.
    if (doc.is_object()) {
      doc.as_object().Set("a/b", Json(1));
      doc.as_object().Set("t~ilde", Json(2));
      doc.as_object().Set("", Json(3));  // empty key is legal JSON
    }
    std::vector<std::pair<std::string, Json>> leaves;
    EnumerateLeaves(doc, "", leaves);
    for (const auto& [pointer, expected] : leaves) {
      const Json* found = ResolvePointerRef(doc, pointer);
      ASSERT_NE(found, nullptr) << pointer << " in " << Serialize(doc);
      EXPECT_EQ(*found, expected) << pointer;
    }
  }
}

TEST_P(PointerProperty, SetThenResolveRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int round = 0; round < 30; ++round) {
    Json doc = Json::MakeObject();
    // Random object path of depth 1-4.
    std::string pointer;
    const int depth = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int d = 0; d < depth; ++d) {
      pointer += "/k" + std::to_string(rng.UniformInt(0, 5));
    }
    const Json value = RandomJson(rng, 2);
    ASSERT_TRUE(SetPointer(doc, pointer, value).ok()) << pointer;
    auto resolved = ResolvePointer(doc, pointer);
    ASSERT_TRUE(resolved.ok()) << pointer;
    EXPECT_EQ(*resolved, value) << pointer;
    // Remove and verify gone.
    ASSERT_TRUE(RemovePointer(doc, pointer).ok()) << pointer;
    EXPECT_FALSE(ResolvePointer(doc, pointer).ok()) << pointer;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointerProperty, ::testing::Range(1, 6));

// ----------------------------------------------------------- Merge patch ---

TEST(MergePatchTest, Rfc7386Examples) {
  Json target = *Parse(R"({"a":"b","c":{"d":"e","f":"g"}})");
  MergePatch(target, *Parse(R"({"a":"z","c":{"f":null}})"));
  EXPECT_EQ(target, *Parse(R"({"a":"z","c":{"d":"e"}})"));
}

TEST(MergePatchTest, NonObjectPatchReplaces) {
  Json target = *Parse(R"({"a":1})");
  MergePatch(target, Json::Arr({1, 2}));
  EXPECT_TRUE(target.is_array());
}

TEST(MergePatchTest, PatchIntoScalarCreatesObject) {
  Json target = Json(5);
  MergePatch(target, *Parse(R"({"a":1})"));
  EXPECT_EQ(target, *Parse(R"({"a":1})"));
}

TEST(MergePatchTest, DiffThenPatchReachesTarget) {
  Rng rng(404);
  for (int i = 0; i < 40; ++i) {
    Json from = RandomJson(rng, 1);
    Json to = RandomJson(rng, 1);
    if (!from.is_object()) from = Json::Obj({{"v", from}});
    if (!to.is_object()) to = Json::Obj({{"v", to}});
    // Merge-patch cannot represent null members; scrub them from `to`.
    // (RandomJson only nests under object/array; scrub top level members.)
    std::vector<std::string> null_keys;
    for (auto& [k, v] : to.as_object()) {
      if (v.is_null()) null_keys.push_back(k);
    }
    for (const auto& k : null_keys) to.as_object().Erase(k);
    const Json patch = DiffToMergePatch(from, to);
    Json applied = from;
    MergePatch(applied, patch);
    EXPECT_EQ(applied, to) << Serialize(from) << " + " << Serialize(patch);
  }
}

// ---------------------------------------------------------------- Schema ---

Json StorageSchema() {
  return *Parse(R"({
    "type": "object",
    "required": ["Name", "CapacityBytes"],
    "properties": {
      "Name": {"type": "string", "minLength": 1, "maxLength": 64},
      "CapacityBytes": {"type": "integer", "minimum": 0},
      "Status": {"$ref": "#/$defs/Status"},
      "AccessModes": {
        "type": "array",
        "items": {"type": "string", "enum": ["Read", "Write", "ReadWrite"]},
        "minItems": 1, "maxItems": 3
      },
      "Id": {"type": "string", "readonly": true},
      "Utilization": {"type": "number", "minimum": 0, "maximum": 1}
    },
    "additionalProperties": false,
    "$defs": {
      "Status": {
        "type": "object",
        "properties": {
          "State": {"type": "string", "enum": ["Enabled", "Disabled", "Absent"]},
          "Health": {"type": "string"}
        }
      }
    }
  })");
}

TEST(SchemaTest, AcceptsValidDocument) {
  SchemaValidator validator(StorageSchema());
  const Json doc = *Parse(R"({
    "Name": "pool0", "CapacityBytes": 1024,
    "Status": {"State": "Enabled", "Health": "OK"},
    "AccessModes": ["Read", "Write"], "Utilization": 0.5
  })");
  EXPECT_TRUE(validator.Check(doc).ok()) << validator.Check(doc).ToString();
}

TEST(SchemaTest, ReportsEveryViolation) {
  SchemaValidator validator(StorageSchema());
  const Json doc = *Parse(R"({
    "CapacityBytes": -5,
    "Status": {"State": "Bogus"},
    "AccessModes": [],
    "Utilization": 2.0,
    "Extra": 1
  })");
  const auto errors = validator.Validate(doc);
  // Missing Name, negative capacity, bad enum, empty array, >max, extra prop.
  EXPECT_GE(errors.size(), 6u);
}

TEST(SchemaTest, TypeMismatchMessages) {
  SchemaValidator validator(*Parse(R"({"type":"integer"})"));
  const Status status = validator.Check(Json("nope"));
  EXPECT_FALSE(status.ok());
  EXPECT_THAT(status.message(), HasSubstr("expected type"));
}

TEST(SchemaTest, TypeArrayAllowsAlternatives) {
  SchemaValidator validator(*Parse(R"({"type":["string","null"]})"));
  EXPECT_TRUE(validator.Check(Json("x")).ok());
  EXPECT_TRUE(validator.Check(Json()).ok());
  EXPECT_FALSE(validator.Check(Json(5)).ok());
}

TEST(SchemaTest, IntegerVersusNumber) {
  SchemaValidator int_validator(*Parse(R"({"type":"integer"})"));
  EXPECT_TRUE(int_validator.Check(Json(3)).ok());
  EXPECT_FALSE(int_validator.Check(Json(3.5)).ok());
  SchemaValidator num_validator(*Parse(R"({"type":"number"})"));
  EXPECT_TRUE(num_validator.Check(Json(3)).ok());
  EXPECT_TRUE(num_validator.Check(Json(3.5)).ok());
}

TEST(SchemaTest, PatternMatching) {
  SchemaValidator validator(*Parse(R"({"type":"string","pattern":"^node[0-9]+$"})"));
  EXPECT_TRUE(validator.Check(Json("node001")).ok());
  EXPECT_FALSE(validator.Check(Json("login")).ok());
}

TEST(SchemaTest, Combinators) {
  SchemaValidator any(*Parse(R"({"anyOf":[{"type":"string"},{"type":"integer"}]})"));
  EXPECT_TRUE(any.Check(Json("s")).ok());
  EXPECT_TRUE(any.Check(Json(1)).ok());
  EXPECT_FALSE(any.Check(Json(1.5)).ok());

  SchemaValidator one(*Parse(R"({"oneOf":[{"type":"number"},{"type":"integer"}]})"));
  EXPECT_FALSE(one.Check(Json(1)).ok());   // matches both branches
  EXPECT_TRUE(one.Check(Json(1.5)).ok());  // matches only "number"

  SchemaValidator all(*Parse(R"({"allOf":[{"type":"integer"},{"minimum":5}]})"));
  EXPECT_TRUE(all.Check(Json(7)).ok());
  EXPECT_FALSE(all.Check(Json(3)).ok());

  SchemaValidator nots(*Parse(R"({"not":{"type":"null"}})"));
  EXPECT_TRUE(nots.Check(Json(1)).ok());
  EXPECT_FALSE(nots.Check(Json()).ok());
}

TEST(SchemaTest, ConstAndMultipleOf) {
  SchemaValidator c(*Parse(R"({"const":"fixed"})"));
  EXPECT_TRUE(c.Check(Json("fixed")).ok());
  EXPECT_FALSE(c.Check(Json("other")).ok());
  SchemaValidator m(*Parse(R"({"type":"integer","multipleOf":8})"));
  EXPECT_TRUE(m.Check(Json(64)).ok());
  EXPECT_FALSE(m.Check(Json(63)).ok());
}

TEST(SchemaTest, BooleanSchemas) {
  EXPECT_TRUE(SchemaValidator(Json(true)).Check(Json(123)).ok());
  EXPECT_FALSE(SchemaValidator(Json(false)).Check(Json(123)).ok());
}

TEST(SchemaTest, UnresolvableRefIsError) {
  SchemaValidator validator(*Parse(R"({"$ref":"#/$defs/Missing"})"));
  EXPECT_FALSE(validator.Check(Json(1)).ok());
}

TEST(SchemaTest, ReadOnlyViolationsDetected) {
  SchemaValidator validator(StorageSchema());
  const Json patch = *Parse(R"({"Name":"ok","Id":"not-allowed"})");
  const auto violations = validator.ReadOnlyViolations(patch);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].pointer, "/Id");
  EXPECT_TRUE(validator.ReadOnlyViolations(*Parse(R"({"Name":"ok"})")).empty());
}

TEST(SchemaTest, MinProperties) {
  SchemaValidator validator(*Parse(R"({"type":"object","minProperties":2})"));
  EXPECT_FALSE(validator.Check(*Parse(R"({"a":1})")).ok());
  EXPECT_TRUE(validator.Check(*Parse(R"({"a":1,"b":2})")).ok());
}

TEST(SchemaTest, ExclusiveBounds) {
  SchemaValidator validator(
      *Parse(R"({"type":"number","exclusiveMinimum":0,"exclusiveMaximum":10})"));
  EXPECT_FALSE(validator.Check(Json(0)).ok());
  EXPECT_TRUE(validator.Check(Json(5)).ok());
  EXPECT_FALSE(validator.Check(Json(10)).ok());
}

}  // namespace
}  // namespace ofmf::json
