// Divergence forensics tests: `obs::diff_streams` must exit clean on
// identical traces, name the exact first divergent record (with decoded
// context and the first differing field) on a perturbed trace, ignore
// manifest execution blocks, and degrade gracefully on prefix and
// non-JSON input.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/diff.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "slurmlite/simulation.hpp"
#include "workload/campaign.hpp"

namespace cosched::obs {
namespace {

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

/// A small traced co-backfill run: enough records to have pass
/// boundaries, decisions, and job lifecycle events.
std::string sample_trace() {
  Tracer tracer;
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  spec.controller.tracer = &tracer;
  spec.workload = workload::trinity_campaign(16, 60);
  spec.seed = 11;
  slurmlite::run_simulation(spec, trinity());
  return tracer.str();
}

std::vector<std::string> lines_of(const std::string& jsonl) {
  std::vector<std::string> out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

TEST(DiffStreams, IdenticalStreamsExitClean) {
  const std::string trace = sample_trace();
  const DiffResult result = diff_streams("a.jsonl", trace, "b.jsonl", trace);
  EXPECT_TRUE(result.identical);
  EXPECT_EQ(result.first_divergence, lines_of(trace).size());
  EXPECT_NE(result.report.find("streams identical"), std::string::npos);
}

TEST(DiffStreams, PerturbedRecordPinpointsExactIndexAndField) {
  const std::string trace = sample_trace();
  std::vector<std::string> lines = lines_of(trace);
  ASSERT_GT(lines.size(), 50u);
  // Perturb one field value deep in the stream — the forensic report must
  // name exactly this record, not any downstream fallout.
  const std::size_t target = lines.size() / 2;
  const std::size_t pos = lines[target].find("\"t_us\":");
  ASSERT_NE(pos, std::string::npos) << lines[target];
  std::string perturbed_line = lines[target];
  perturbed_line.replace(pos, 7, "\"t_us\":9");
  ASSERT_NE(perturbed_line, lines[target]);
  std::vector<std::string> perturbed = lines;
  perturbed[target] = perturbed_line;

  const DiffResult result =
      diff_streams("good.jsonl", trace, "bad.jsonl", join(perturbed));
  EXPECT_FALSE(result.identical);
  EXPECT_EQ(result.first_divergence, target);
  EXPECT_NE(result.report.find("first divergence: record " +
                               std::to_string(target)),
            std::string::npos)
      << result.report;
  EXPECT_NE(result.report.find("first differing field: t_us"),
            std::string::npos)
      << result.report;
  // The decoded context names the enclosing scheduler pass window.
  EXPECT_NE(result.report.find("scheduler pass"), std::string::npos)
      << result.report;
  EXPECT_NE(result.report.find("last records both streams agree on:"),
            std::string::npos)
      << result.report;
}

TEST(DiffStreams, ManifestExecutionBlockIsIgnored) {
  RunManifest m;
  m.command = "sim";
  m.strategy = "fcfs";
  m.queue_policy = "fifo";
  m.workload = "trinity";
  m.seed = 3;
  m.nodes = 8;
  m.jobs = 10;

  RunManifest other = m;
  other.threads = 4;
  other.build = "custom";

  Tracer a;
  Tracer b;
  a.manifest(m);
  b.manifest(other);
  const std::string body = "{\"t_us\":5,\"type\":\"submit\",\"job\":1}\n";
  // Runs differing only in execution metadata are REQUIRED to agree —
  // the manifest's execution block must not count as divergence.
  EXPECT_TRUE(diff_streams("a", a.str() + body, "b", b.str() + body)
                  .identical);

  // A decision-identity mismatch, however, is a reported divergence at
  // record 0.
  RunManifest wrong_seed = m;
  wrong_seed.seed = 4;
  Tracer c;
  c.manifest(wrong_seed);
  const DiffResult result =
      diff_streams("a", a.str() + body, "c", c.str() + body);
  EXPECT_FALSE(result.identical);
  EXPECT_EQ(result.first_divergence, 0u);
  EXPECT_NE(result.report.find("first differing field: seed"),
            std::string::npos)
      << result.report;
}

TEST(DiffStreams, PrefixTruncationIsDivergenceAtTheCut) {
  const std::string trace = sample_trace();
  std::vector<std::string> lines = lines_of(trace);
  ASSERT_GT(lines.size(), 3u);
  std::vector<std::string> truncated(lines.begin(), lines.end() - 2);

  const DiffResult result =
      diff_streams("full.jsonl", trace, "cut.jsonl", join(truncated));
  EXPECT_FALSE(result.identical);
  EXPECT_EQ(result.first_divergence, truncated.size());
  EXPECT_NE(result.report.find("ends here"), std::string::npos)
      << result.report;
}

TEST(DiffStreams, NonJsonInputDegradesToLineDiff) {
  const DiffResult same =
      diff_streams("a", "not json\nstill not\n", "b", "not json\nstill not\n");
  EXPECT_TRUE(same.identical);
  const DiffResult diff =
      diff_streams("a", "not json\nalpha\n", "b", "not json\nbeta\n");
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.first_divergence, 1u);
}

TEST(DiffStreams, OutOfRangeTimeRendersRaw) {
  // A t_us that is no valid trace time is shown as written, never cast.
  const std::string bad =
      R"({"t_us":99999999999999999999999,"type":"submit","job":1})";
  const DiffResult result = diff_streams(
      "a", "{\"t_us\":5,\"type\":\"submit\",\"job\":1}\n", "b",
      bad + "\n");
  EXPECT_FALSE(result.identical);
  EXPECT_NE(result.report.find(bad), std::string::npos) << result.report;
  EXPECT_EQ(result.report.find("-9223372036854775808"), std::string::npos)
      << result.report;
}

TEST(DiffStreams, DeepNestingIsAnUnparseableLine) {
  const std::string deep(50'000, '[');
  const DiffResult result = diff_streams("a", deep + "\n", "b", "[]\n");
  EXPECT_FALSE(result.identical);
  EXPECT_EQ(result.first_divergence, 0u);
}

}  // namespace
}  // namespace cosched::obs
