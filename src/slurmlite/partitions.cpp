#include "slurmlite/partitions.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cosched::slurmlite {

PartitionedSystem::PartitionedSystem(sim::Engine& engine,
                                     std::vector<PartitionConfig> partitions,
                                     const apps::Catalog& catalog) {
  COSCHED_REQUIRE(!partitions.empty(), "at least one partition required");
  for (auto& p : partitions) {
    COSCHED_REQUIRE(!p.name.empty(), "partition name must not be empty");
    COSCHED_REQUIRE(std::find(names_.begin(), names_.end(), p.name) ==
                        names_.end(),
                    "duplicate partition name '" << p.name << "'");
    names_.push_back(p.name);
    controllers_.push_back(
        std::make_unique<Controller>(engine, p.controller, catalog));
  }
}

Controller* PartitionedSystem::find(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return controllers_[i].get();
  }
  return nullptr;
}

const Controller* PartitionedSystem::find(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return controllers_[i].get();
  }
  return nullptr;
}

void PartitionedSystem::submit(workload::Job job) {
  Controller* target = job.partition.empty() ? controllers_.front().get()
                                             : find(job.partition);
  COSCHED_REQUIRE(target != nullptr,
                  "job " << job.id << " targets unknown partition '"
                         << job.partition << "'");
  target->submit(std::move(job));
}

Controller& PartitionedSystem::partition(const std::string& name) {
  Controller* c = find(name);
  COSCHED_REQUIRE(c != nullptr, "unknown partition '" << name << "'");
  return *c;
}

const Controller& PartitionedSystem::partition(
    const std::string& name) const {
  const Controller* c = find(name);
  COSCHED_REQUIRE(c != nullptr, "unknown partition '" << name << "'");
  return *c;
}

std::vector<std::string> PartitionedSystem::partition_names() const {
  return names_;
}

ControllerStats PartitionedSystem::combined_stats() const {
  ControllerStats total;
  for (const auto& controller : controllers_) {
    const ControllerStats& s = controller->stats();
    total.scheduler_passes += s.scheduler_passes;
    total.primary_starts += s.primary_starts;
    total.secondary_starts += s.secondary_starts;
    total.completions += s.completions;
    total.timeouts += s.timeouts;
    total.requeues += s.requeues;
    total.node_failures += s.node_failures;
    total.dependency_cancellations += s.dependency_cancellations;
    total.scheduler_cpu += s.scheduler_cpu;
  }
  return total;
}

int PartitionedSystem::total_nodes() const {
  int total = 0;
  for (const auto& controller : controllers_) {
    total += controller->machine_state().node_count();
  }
  return total;
}

}  // namespace cosched::slurmlite
