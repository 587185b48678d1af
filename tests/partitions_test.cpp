#include <gtest/gtest.h>

#include "slurmlite/partitions.hpp"
#include "test_support.hpp"

namespace cosched::slurmlite {
namespace {

using cosched::testing::make_job;

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

std::vector<PartitionConfig> two_partitions() {
  PartitionConfig a;
  a.name = "shared";
  a.controller.nodes = 4;
  a.controller.strategy = core::StrategyKind::kCoBackfill;
  PartitionConfig b;
  b.name = "exclusive";
  b.controller.nodes = 2;
  b.controller.node_config.smt_per_core = 1;
  b.controller.strategy = core::StrategyKind::kFcfs;
  return {a, b};
}

TEST(Partitions, ConstructionAndNames) {
  sim::Engine engine;
  PartitionedSystem site(engine, two_partitions(), trinity());
  EXPECT_EQ(site.partition_names(),
            (std::vector<std::string>{"shared", "exclusive"}));
  EXPECT_EQ(site.total_nodes(), 6);
}

TEST(Partitions, RejectsBadConfigs) {
  sim::Engine engine;
  EXPECT_THROW(PartitionedSystem(engine, {}, trinity()), Error);
  auto dup = two_partitions();
  dup[1].name = "shared";
  EXPECT_THROW(PartitionedSystem(engine, dup, trinity()), Error);
  auto unnamed = two_partitions();
  unnamed[0].name = "";
  EXPECT_THROW(PartitionedSystem(engine, unnamed, trinity()), Error);
}

TEST(Partitions, RoutesByName) {
  sim::Engine engine;
  PartitionedSystem site(engine, two_partitions(), trinity());
  auto to_shared = make_job(1, 2, kMinute, kHour, 0);
  to_shared.partition = "shared";
  auto to_exclusive = make_job(2, 2, kMinute, kHour, 0);
  to_exclusive.partition = "exclusive";
  auto defaulted = make_job(3, 1, kMinute, kHour, 0);  // empty => first
  site.submit(to_shared);
  site.submit(to_exclusive);
  site.submit(defaulted);
  engine.run();
  EXPECT_EQ(site.partition("shared").job_records().size(), 2u);
  EXPECT_EQ(site.partition("exclusive").job_records().size(), 1u);
}

TEST(Partitions, UnknownPartitionRejected) {
  sim::Engine engine;
  PartitionedSystem site(engine, two_partitions(), trinity());
  auto job = make_job(1, 1, kMinute, kHour, 0);
  job.partition = "debug";
  EXPECT_THROW(site.submit(job), Error);
  EXPECT_THROW(site.partition("debug"), Error);
}

TEST(Partitions, IndependentMachinesAndStrategies) {
  sim::Engine engine;
  PartitionedSystem site(engine, two_partitions(), trinity());
  // Fill 'shared' (4 nodes, cobackfill) with a GTC primary, then co-run a
  // miniFE; 'exclusive' (fcfs, no SMT) serializes its two jobs.
  auto p1 = make_job(1, 4, kHour, 2 * kHour, trinity().by_name("GTC").id);
  p1.partition = "shared";
  auto p2 = make_job(2, 2, 20 * kMinute, 40 * kMinute,
                     trinity().by_name("miniFE").id);
  p2.partition = "shared";
  auto e1 = make_job(3, 2, kHour, 2 * kHour, 0);
  e1.partition = "exclusive";
  auto e2 = make_job(4, 2, kHour, 2 * kHour, 0);
  e2.partition = "exclusive";
  for (const workload::Job& job : {p1, p2, e1, e2}) site.submit(job);
  engine.run();

  const auto shared_records = site.partition("shared").job_records();
  EXPECT_EQ(shared_records[1].alloc_kind,
            cluster::AllocationKind::kSecondary);
  const auto excl_records = site.partition("exclusive").job_records();
  EXPECT_EQ(excl_records[1].start_time, excl_records[0].end_time);

  const auto stats = site.combined_stats();
  EXPECT_EQ(stats.completions, 4u);
  EXPECT_EQ(stats.secondary_starts, 1u);
}

TEST(Partitions, JobTooBigForItsPartitionIsCancelled) {
  sim::Engine engine;
  PartitionedSystem site(engine, two_partitions(), trinity());
  auto big = make_job(1, 3, kMinute, kHour, 0);
  big.partition = "exclusive";  // only 2 nodes there
  site.submit(big);
  engine.run();
  EXPECT_EQ(site.partition("exclusive").job_records()[0].state,
            workload::JobState::kCancelled);
}

}  // namespace
}  // namespace cosched::slurmlite
