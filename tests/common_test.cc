#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/percentile.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/timeutil.h"

namespace tvdp {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  TVDP_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("must be positive");
  return x * 2;
}

Result<int> UsesAssignOrReturn(int x) {
  TVDP_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.value_or(-7), -7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = UsesAssignOrReturn(10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 21);
  EXPECT_FALSE(UsesAssignOrReturn(0).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBoundsAndHitsAll) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, NormalMoments) {
  Rng rng(99);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(3);
  std::vector<double> w = {1, 0, 3};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / (counts[0] + counts[2]), 0.75,
              0.03);
}

TEST(RngTest, WeightedIndexDegenerate) {
  Rng rng(3);
  std::vector<double> all_zero = {0, 0, 0};
  EXPECT_EQ(rng.WeightedIndex(all_zero), 0u);
  std::vector<double> empty;
  EXPECT_EQ(rng.WeightedIndex(empty), 0u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(8);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(4);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

// ---------- Strings ----------

TEST(StringsTest, SplitBasic) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, SplitSkipEmpty) {
  auto parts = StrSplit("a,,c,", ',', /*skip_empty=*/true);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "c");
}

TEST(StringsTest, SplitJoinRoundtrip) {
  std::vector<std::string> parts = {"x", "yy", "zzz"};
  EXPECT_EQ(StrSplit(StrJoin(parts, "|"), '|'), parts);
}

TEST(StringsTest, CaseAndTrim) {
  EXPECT_EQ(ToLower("AbC9!"), "abc9!");
  EXPECT_EQ(StrTrim("  hi \t\n"), "hi");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringsTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("tvdp_key", "tvdp_"));
  EXPECT_FALSE(StartsWith("tv", "tvdp_"));
  EXPECT_TRUE(EndsWith("image.ppm", ".ppm"));
  EXPECT_FALSE(EndsWith("ppm", ".ppm"));
}

TEST(StringsTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringsTest, TokenizeWords) {
  auto words = TokenizeWords("Hello, World! tent-city 42");
  ASSERT_EQ(words.size(), 5u);
  EXPECT_EQ(words[0], "hello");
  EXPECT_EQ(words[2], "tent");
  EXPECT_EQ(words[4], "42");
}

TEST(StringsTest, TokenizeEmpty) {
  EXPECT_TRUE(TokenizeWords("").empty());
  EXPECT_TRUE(TokenizeWords("!!! ...").empty());
}

// ---------- Json ----------

TEST(JsonTest, ScalarRoundtrip) {
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(2.5).Dump(), "2.5");
}

TEST(JsonTest, ObjectBuildAndAccess) {
  Json j = Json::MakeObject();
  j["name"] = "tvdp";
  j["count"] = 3;
  j["nested"]["flag"] = true;
  EXPECT_EQ(j["name"].AsString(), "tvdp");
  EXPECT_EQ(j["count"].AsInt(), 3);
  EXPECT_TRUE(j["nested"]["flag"].AsBool());
  EXPECT_TRUE(j["missing"].is_null());
  EXPECT_TRUE(j.Has("name"));
  EXPECT_FALSE(j.Has("nope"));
}

TEST(JsonTest, ArrayAppend) {
  Json j = Json::MakeArray();
  j.Append(1);
  j.Append("two");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.AsArray()[1].AsString(), "two");
}

TEST(JsonTest, ParseRoundtrip) {
  const char* doc =
      R"({"a": [1, 2.5, "x"], "b": {"c": null, "d": false}, "e": "q\"uote"})";
  auto parsed = Json::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto reparsed = Json::Parse(parsed->Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*parsed, *reparsed);
  EXPECT_EQ((*parsed)["a"].AsArray()[1].AsDouble(), 2.5);
  EXPECT_EQ((*parsed)["e"].AsString(), "q\"uote");
}

TEST(JsonTest, ParseEscapes) {
  auto j = Json::Parse(R"("line\nbreak\tA")");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->AsString(), "line\nbreak\tA");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1} extra").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
}

TEST(JsonTest, DeepNestingRejected) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, PrettyIsReparseable) {
  Json j = Json::MakeObject();
  j["list"] = Json::Array{Json(1), Json(2)};
  auto re = Json::Parse(j.Pretty());
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(*re, j);
}

// ---------- Time ----------

TEST(TimeTest, FormatKnownInstant) {
  // 2019-01-01 00:00:00 UTC.
  EXPECT_EQ(FormatTimestamp(1546300800), "2019-01-01 00:00:00");
  EXPECT_EQ(FormatTimestamp(0), "1970-01-01 00:00:00");
}

TEST(TimeTest, ParseKnownInstant) {
  auto ts = ParseTimestamp("2019-01-01 00:00:00");
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(ts.value(), 1546300800);
}

TEST(TimeTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseTimestamp("not a time").ok());
  EXPECT_FALSE(ParseTimestamp("2019-13-01 00:00:00").ok());
  EXPECT_FALSE(ParseTimestamp("2019-02-30 00:00:00").ok());
  EXPECT_FALSE(ParseTimestamp("2019-01-01 25:00:00").ok());
}

TEST(TimeTest, LeapYearHandling) {
  auto ts = ParseTimestamp("2020-02-29 12:00:00");
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(FormatTimestamp(ts.value()), "2020-02-29 12:00:00");
}

class TimeRoundtripTest : public ::testing::TestWithParam<Timestamp> {};

TEST_P(TimeRoundtripTest, FormatParseRoundtrip) {
  Timestamp ts = GetParam();
  auto back = ParseTimestamp(FormatTimestamp(ts));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), ts);
}

INSTANTIATE_TEST_SUITE_P(Instants, TimeRoundtripTest,
                         ::testing::Values(0, 1, 86399, 86400, 946684800,
                                           1546300800, 1583020800, 2147483647,
                                           4102444800));

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  EXPECT_EQ(clock.Advance(50), 150);
  EXPECT_EQ(clock.Advance(-10), 150);  // negative advances ignored
}

TEST(LoggingTest, LevelGate) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  TVDP_LOG(Info) << "should be suppressed";
  SetLogLevel(before);
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7.5}, 1), 7.5);
  EXPECT_EQ(Percentile({7.5}, 50), 7.5);
  EXPECT_EQ(Percentile({7.5}, 100), 7.5);

  std::vector<double> one_to_hundred;
  for (int i = 100; i >= 1; --i) one_to_hundred.push_back(i);  // unsorted
  EXPECT_EQ(Percentile(one_to_hundred, 50), 50);
  EXPECT_EQ(Percentile(one_to_hundred, 99), 99);
  EXPECT_EQ(Percentile(one_to_hundred, 100), 100);
}

}  // namespace
}  // namespace tvdp
