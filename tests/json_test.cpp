#include <gtest/gtest.h>

#include <cmath>

#include "slurmlite/report.hpp"
#include "util/json.hpp"
#include "workload/campaign.hpp"

namespace cosched {
namespace {

// --- JsonWriter -----------------------------------------------------------------

TEST(JsonWriter, SimpleObject) {
  JsonWriter w;
  w.begin_object()
      .value("name", "alpha")
      .value("count", 3)
      .value("ratio", 0.5)
      .value("ok", true)
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"alpha","count":3,"ratio":0.5,"ok":true})");
}

TEST(JsonWriter, NestedScopesAndArrays) {
  JsonWriter w;
  w.begin_object();
  w.begin_array("xs").value(1.0).value(2.0).end_array();
  w.begin_object("inner").value("k", "v").end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"xs":[1,2],"inner":{"k":"v"}})");
}

TEST(JsonWriter, ArrayOfObjects) {
  JsonWriter w;
  w.begin_array();
  w.begin_object().value("i", 0).end_object();
  w.begin_object().value("i", 1).end_object();
  w.end_array();
  EXPECT_EQ(w.str(), R"([{"i":0},{"i":1}])");
}

TEST(JsonWriter, EscapesSpecials) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
  JsonWriter w;
  w.begin_object().value("k", "line\nbreak").end_object();
  EXPECT_EQ(w.str(), R"({"k":"line\nbreak"})");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.begin_object().value("x", std::nan("")).end_object();
  EXPECT_EQ(w.str(), R"({"x":null})");
}

TEST(JsonWriter, UnbalancedScopesAbort) {
  JsonWriter w;
  w.begin_object();
  EXPECT_DEATH((void)w.str(), "unclosed JSON scope");
}

// --- JSON parser -----------------------------------------------------------------

TEST(JsonParser, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse_json("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(parse_json("6.02e23").as_number(), 6.02e23);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParser, ParsesNestedStructure) {
  const auto v = parse_json(
      R"({"name":"alpha","xs":[1,2,3],"inner":{"ok":true,"n":null}})");
  EXPECT_EQ(v.at("name").as_string(), "alpha");
  ASSERT_EQ(v.at("xs").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("xs").as_array()[2].as_number(), 3.0);
  EXPECT_TRUE(v.at("inner").at("ok").as_bool());
  EXPECT_TRUE(v.at("inner").at("n").is_null());
  EXPECT_EQ(v.keys(), (std::vector<std::string>{"name", "xs", "inner"}));
  EXPECT_FALSE(v.has("absent"));
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(JsonParser, DecodesEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd")").as_string(),
            std::string("a\"b\\c\nd") + '\x01');
}

TEST(JsonParser, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object()
      .value("digest", "0x00ff00ff00ff00ff")
      .value("sched_eff", 0.9234567891)
      .value("events", std::int64_t{123456});
  w.begin_array("xs").value(1.5).value(-2.25).end_array();
  w.end_object();
  const auto v = parse_json(w.str());
  EXPECT_EQ(v.at("digest").as_string(), "0x00ff00ff00ff00ff");
  EXPECT_DOUBLE_EQ(v.at("sched_eff").as_number(), 0.9234567891);
  EXPECT_DOUBLE_EQ(v.at("events").as_number(), 123456.0);
  EXPECT_DOUBLE_EQ(v.at("xs").as_array()[1].as_number(), -2.25);
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("[1,]2"), Error);
  EXPECT_THROW(parse_json("{\"k\" 1}"), Error);
  EXPECT_THROW(parse_json("\"unterminated"), Error);
  EXPECT_THROW(parse_json("trie"), Error);
  EXPECT_THROW(parse_json("1 2"), Error);
  EXPECT_THROW(parse_json("--3"), Error);
  // Location is reported for debugging hand-edited goldens.
  try {
    parse_json("{\"k\":\n  oops}");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(JsonParser, RejectsNestingBeyondTheDepthLimit) {
  // At the limit the document parses; one level deeper it fails with the
  // parser's usual error, and 50,000 levels no longer overflow the stack.
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(parse_json(nested(kMaxJsonDepth)));
  EXPECT_THROW(parse_json(nested(kMaxJsonDepth + 1)), Error);
  try {
    parse_json(std::string(50'000, '['));
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonParser, ExactIntOnlyForIntegralNumbersInRange) {
  EXPECT_EQ(parse_json("-42").exact_int(), -42);
  EXPECT_EQ(parse_json("1e15").exact_int(), 1'000'000'000'000'000);
  EXPECT_FALSE(parse_json("2.5").exact_int());
  EXPECT_FALSE(parse_json("99999999999999999999999").exact_int());
  EXPECT_FALSE(parse_json("-9.3e18").exact_int());
  EXPECT_FALSE(parse_json("\"7\"").exact_int());
}

TEST(JsonParser, AccessorsCheckKind) {
  const auto v = parse_json(R"({"n":1})");
  EXPECT_DEATH((void)v.as_array(), "not an array");
  EXPECT_DEATH((void)v.at("n").as_string(), "not a string");
  EXPECT_DEATH((void)v.at("missing"), "no key");
}

// --- Simulation report -------------------------------------------------------------

TEST(JsonReport, ContainsMetricsStatsAndJobs) {
  const auto catalog = apps::Catalog::trinity();
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 8;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  spec.workload = workload::trinity_campaign(8, 20);
  const auto result = slurmlite::run_simulation(spec, catalog);

  const std::string json = slurmlite::to_json(result, catalog);
  for (const char* needle :
       {"\"metrics\"", "\"scheduling_efficiency\"", "\"stats\"",
        "\"secondary_starts\"", "\"jobs\"", "\"dilation\"",
        "\"COMPLETED\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  // Structural sanity: balanced braces/brackets, one job object per job.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(json.begin(), json.end(), '{')),
            2 + result.jobs.size() + 1);  // root + metrics + stats + jobs
}

TEST(JsonReport, DeterministicForSameRun) {
  const auto catalog = apps::Catalog::trinity();
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 4;
  spec.workload = workload::trinity_campaign(4, 10);
  const auto a = slurmlite::run_simulation(spec, catalog);
  const auto b = slurmlite::run_simulation(spec, catalog);
  // scheduler_cpu_ms is host wall-clock and legitimately varies; all
  // simulated content must match exactly.
  auto strip_cpu = [](std::string json) {
    const auto from = json.find("\"scheduler_cpu_ms\"");
    const auto to = json.find('}', from);
    return json.erase(from, to - from);
  };
  EXPECT_EQ(strip_cpu(slurmlite::to_json(a, catalog)),
            strip_cpu(slurmlite::to_json(b, catalog)));
}

}  // namespace
}  // namespace cosched
