// Streaming job supply: a pull interface the controller drains one
// arrival at a time, so archive-scale traces and generated workloads
// never materialize as a full JobList. Implementations must yield jobs in
// nondecreasing submit_time order (the controller schedules each arrival
// as it is pulled) and be exhausted exactly once.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>

#include "workload/job.hpp"

namespace cosched::workload {

class JobSource {
 public:
  virtual ~JobSource() = default;
  /// The next job in nondecreasing submit order, nullopt when exhausted.
  virtual std::optional<Job> next() = 0;
};

/// Streams an in-memory list: how run_jobs and Controller::submit_all
/// feed a materialized workload (an SWF replay, a scripted test) through
/// the one arrival path. The list must outlive the source.
class ListSource final : public JobSource {
 public:
  explicit ListSource(const JobList& jobs) : jobs_(&jobs) {}
  explicit ListSource(JobList&&) = delete;
  std::optional<Job> next() override {
    if (index_ >= jobs_->size()) return std::nullopt;
    return (*jobs_)[index_++];
  }

 private:
  const JobList* jobs_;
  std::size_t index_ = 0;
};

}  // namespace cosched::workload
