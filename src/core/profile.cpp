#include "core/profile.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cosched::core {

AvailabilityProfile::AvailabilityProfile(int total_nodes, SimTime origin) {
  reset(total_nodes, origin);
}

void AvailabilityProfile::reset(int total_nodes, SimTime origin) {
  COSCHED_CHECK(total_nodes >= 0);
  total_ = total_nodes;
  steps_.clear();
  steps_.emplace_back(origin, total_nodes);
}

std::size_t AvailabilityProfile::step_index(SimTime t) const {
  COSCHED_CHECK_MSG(t >= steps_.front().first,
                    "query before profile origin: " << t);
  // Last step with time <= t.
  auto it = std::upper_bound(
      steps_.begin(), steps_.end(), t,
      [](SimTime value, const auto& step) { return value < step.first; });
  return static_cast<std::size_t>(std::distance(steps_.begin(), it)) - 1;
}

int AvailabilityProfile::free_at(SimTime t) const {
  return steps_[step_index(t)].second;
}

std::size_t AvailabilityProfile::split_at(SimTime t) {
  const std::size_t idx = step_index(t);
  if (steps_[idx].first == t) return idx;
  steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                {t, steps_[idx].second});
  return idx + 1;
}

void AvailabilityProfile::reserve(SimTime from, SimTime to, int count) {
  COSCHED_CHECK(count >= 0);
  if (from >= to || count == 0) return;
  const std::size_t first = split_at(from);
  const std::size_t last = split_at(to);  // boundary step keeps old value
  for (std::size_t i = first; i < last; ++i) {
    steps_[i].second -= count;
  }
}

SimTime AvailabilityProfile::find_start(SimTime earliest, SimDuration duration,
                                        int count) const {
  COSCHED_CHECK(duration >= 0 && count >= 0);
  if (count > total_) return kTimeInfinity;
  // Single forward sweep: `anchor` is the earliest candidate start whose
  // window has been clean (free >= count) so far. A dirty segment pushes
  // the anchor past its end; a clean segment that covers anchor + duration
  // ends the search. O(steps).
  SimTime anchor = earliest;
  for (std::size_t i = step_index(earliest); i < steps_.size(); ++i) {
    if (steps_[i].second < count) {
      if (i + 1 >= steps_.size()) return kTimeInfinity;  // dirty forever
      anchor = std::max(anchor, steps_[i + 1].first);
      continue;
    }
    const SimTime seg_end =
        (i + 1 < steps_.size()) ? steps_[i + 1].first : kTimeInfinity;
    if (seg_end == kTimeInfinity || seg_end - anchor >= duration) {
      return anchor;
    }
  }
  return kTimeInfinity;
}

}  // namespace cosched::core
