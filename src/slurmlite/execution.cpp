#include "slurmlite/execution.hpp"

#include <cmath>

#include "util/check.hpp"

namespace cosched::slurmlite {

double Epoch::observed_dilation(SimTime now) const {
  const double elapsed = to_seconds(now - start);
  const double progressed = progress_s(now) - initial_s;
  return progressed > 0 ? elapsed / progressed : 1.0;
}

SimTime Epoch::predicted_end() const {
  COSCHED_CHECK_MSG(rate != 0, "epoch has no rate yet");
  return end;
}

ExecutionModel::ExecutionModel(const cluster::Machine& machine,
                               const apps::Catalog& catalog,
                               const interference::CorunModel& corun)
    : machine_(machine), catalog_(catalog), corun_(corun) {}

Epoch ExecutionModel::start(const workload::Job& job, SimTime now,
                            double initial_progress_s) const {
  COSCHED_CHECK(initial_progress_s >= 0);
  Epoch e;
  e.alloc = machine_.allocation(job.id);
  COSCHED_CHECK(e.alloc != nullptr);
  e.app = job.app;
  e.start = now;
  e.epoch_t = now;
  e.end = now;  // placeholder; the first refresh_rates() predicts it
  e.work_s = to_seconds(job.base_runtime);
  e.epoch_progress = std::min(initial_progress_s, e.work_s);
  e.initial_s = e.epoch_progress;
  // Placement locality is fixed for the allocation's lifetime.
  e.locality = machine_.topology().locality_dilation(
      e.alloc->nodes, catalog_.get(job.app).stress.network);
  return e;
}

bool ExecutionModel::settle(Epoch& e, double rate, SimTime now) {
  const bool first = e.rate == 0;
  if (!first) {
    // An equal rate leaves progress and the predicted end exactly as they
    // were, so the epoch and its completion event both stand.
    if (rate == e.rate) return false;
    COSCHED_CHECK(now >= e.epoch_t);
    e.epoch_progress = e.progress_s(now);
    e.epoch_t = now;
    ++rate_changes_;
  }
  e.rate = rate;
  const double remaining = std::max(0.0, e.work_s - e.epoch_progress);
  // Ceil to a whole microsecond so the completion event never fires a tick
  // before the work is done.
  const double wall_s = remaining / e.rate;
  const SimTime end =
      e.epoch_t +
      static_cast<SimTime>(std::ceil(wall_s * static_cast<double>(kSecond)));
  if (!first && end == e.end) return false;
  e.end = end;
  return true;
}

}  // namespace cosched::slurmlite
