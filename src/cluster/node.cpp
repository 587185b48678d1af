#include "cluster/node.hpp"

#include <algorithm>

namespace cosched::cluster {

Node::Node(NodeId id, const NodeConfig& config)
    : id_(id), config_(config),
      slots_(static_cast<std::size_t>(config.slots()), kInvalidJob) {
  COSCHED_CHECK(config.cores > 0);
  COSCHED_CHECK(config.smt_per_core >= 1 &&
                config.smt_per_core <= kMaxThreadsPerCore);
}

std::vector<JobId> Node::secondary_jobs() const {
  std::vector<JobId> out;
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i] != kInvalidJob) out.push_back(slots_[i]);
  }
  return out;
}

std::vector<JobId> Node::jobs() const {
  std::vector<JobId> out;
  for (JobId j : slots_) {
    if (j != kInvalidJob) out.push_back(j);
  }
  return out;
}

int Node::job_count() const {
  int n = 0;
  for (JobId j : slots_) n += (j != kInvalidJob) ? 1 : 0;
  return n;
}

bool Node::primary_free() const {
  return state_ != NodeState::kDown && slots_[0] == kInvalidJob;
}

bool Node::secondary_free() const {
  if (state_ == NodeState::kDown || slots_[0] == kInvalidJob) return false;
  return std::any_of(slots_.begin() + 1, slots_.end(),
                     [](JobId j) { return j == kInvalidJob; });
}

void Node::assign_primary(JobId job) {
  COSCHED_CHECK_MSG(primary_free(),
                    "node " << id_ << " primary slot not free for job "
                            << job);
  COSCHED_CHECK(job != kInvalidJob);
  slots_[0] = job;
  refresh_state();
}

void Node::assign_secondary(JobId job) {
  COSCHED_CHECK_MSG(secondary_free(),
                    "node " << id_ << " has no free secondary slot for job "
                            << job);
  COSCHED_CHECK(job != kInvalidJob);
  COSCHED_CHECK_MSG(slots_[0] != job, "job cannot co-allocate with itself");
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i] == kInvalidJob) {
      slots_[i] = job;
      refresh_state();
      return;
    }
  }
}

void Node::remove(JobId job) {
  auto it = std::find(slots_.begin(), slots_.end(), job);
  COSCHED_CHECK_MSG(it != slots_.end(),
                    "job " << job << " is not on node " << id_);
  *it = kInvalidJob;
  if (it == slots_.begin()) {
    // Promote the first remaining secondary so the node never has dangling
    // secondaries without a primary.
    for (std::size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i] != kInvalidJob) {
        slots_[0] = slots_[i];
        slots_[i] = kInvalidJob;
        break;
      }
    }
  }
  refresh_state();
}

void Node::set_down(bool down) {
  if (down) {
    COSCHED_CHECK_MSG(job_count() == 0,
                      "cannot mark occupied node " << id_ << " down");
    state_ = NodeState::kDown;
  } else if (state_ == NodeState::kDown) {
    state_ = NodeState::kIdle;
  }
}

void Node::refresh_state() {
  if (state_ == NodeState::kDown) return;
  state_ = (job_count() == 0) ? NodeState::kIdle : NodeState::kBusy;
}

}  // namespace cosched::cluster
