// Multi-partition sites: several independent controllers (one machine and
// queue each) sharing one simulation clock, with submissions routed by the
// job's partition name — how real sites expose an exclusive partition next
// to a shared (OverSubscribe) one.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "slurmlite/controller.hpp"

namespace cosched::slurmlite {

struct PartitionConfig {
  std::string name = "batch";
  ControllerConfig controller{};
};

class PartitionedSystem {
 public:
  /// Builds one controller per partition on the shared engine. Names must
  /// be unique and non-empty; the first partition is the default route.
  PartitionedSystem(sim::Engine& engine,
                    std::vector<PartitionConfig> partitions,
                    const apps::Catalog& catalog);

  /// Routes one job by job.partition (empty = default) to that
  /// partition's Controller::submit. Unknown names raise cosched::Error.
  void submit(workload::Job job);

  Controller& partition(const std::string& name);
  const Controller& partition(const std::string& name) const;
  std::vector<std::string> partition_names() const;

  /// Element-wise sum of every partition's stats.
  ControllerStats combined_stats() const;

  /// Total nodes across partitions.
  int total_nodes() const;

 private:
  Controller* find(const std::string& name);
  const Controller* find(const std::string& name) const;

  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Controller>> controllers_;
};

}  // namespace cosched::slurmlite
