#include "audit/auditor.hpp"

#include "util/check.hpp"

namespace cosched::audit {

void StateAuditor::validate(SimTime now) const {
  const cluster::Machine& machine = view_.audit_machine();
  // Allocation bookkeeping: cached free counts match, every allocation's
  // nodes actually host the job, secondaries imply a primary.
  machine.check_invariants();

  // Per-node occupancy: slot usage within hardware bounds (no negative
  // free cores / hardware threads) and down nodes hold no jobs.
  int free_primary = 0;
  for (NodeId n = 0; n < machine.node_count(); ++n) {
    const cluster::Node& node = machine.node(n);
    const int used = node.job_count();
    COSCHED_CHECK_MSG(used >= 0 && used <= node.config().slots(),
                      "node " << n << " holds " << used << " jobs but has "
                              << node.config().slots() << " slots");
    COSCHED_CHECK_MSG(!node.is_down() || used == 0,
                      "down node " << n << " still hosts " << used << " jobs");
    free_primary += node.primary_free() ? 1 : 0;
  }
  COSCHED_CHECK_MSG(machine.free_node_count() == free_primary,
                    "free node count " << machine.free_node_count()
                                       << " != recount " << free_primary);

  // Job conservation: every submitted job is in exactly one state, the
  // eligible queue never exceeds the pending census, and the running
  // census matches the machine's view.
  const StateCounts counts = view_.audit_state_counts();
  COSCHED_CHECK_MSG(counts.total() == view_.audit_submitted(),
                    "job conservation broken: census " << counts.total()
                                                       << " of "
                                                       << view_.audit_submitted()
                                                       << " submitted jobs");
  COSCHED_CHECK_MSG(view_.audit_queue_length() <= counts.pending,
                    "queue holds " << view_.audit_queue_length()
                                   << " jobs but only " << counts.pending
                                   << " are pending");

  // Every running job has a live allocation on up nodes of the right size.
  const std::vector<JobId> running = view_.audit_running_jobs();
  COSCHED_CHECK_MSG(running.size() == counts.running,
                    "running list (" << running.size() << ") != census ("
                                     << counts.running << ")");
  for (JobId id : running) {
    const workload::Job& job = view_.audit_job(id);
    const cluster::Allocation* alloc = machine.allocation(id);
    COSCHED_CHECK_MSG(alloc != nullptr,
                      "running job " << id << " has no allocation");
    COSCHED_CHECK_MSG(static_cast<int>(alloc->nodes.size()) == job.nodes,
                      "job " << id << " allocated " << alloc->nodes.size()
                             << " nodes, requested " << job.nodes);
    for (NodeId n : alloc->nodes) {
      COSCHED_CHECK_MSG(!machine.node(n).is_down(),
                        "job " << id << " allocated on down node " << n);
    }
    COSCHED_CHECK_MSG(job.start_time >= 0 && job.start_time <= now,
                      "running job " << id << " has start time "
                                     << job.start_time << " at now=" << now);
  }
}

void StateAuditor::on_event_executed(SimTime when, sim::EventPriority,
                                     sim::EventId, const char*) {
  COSCHED_CHECK_MSG(when >= last_time_,
                    "event timestamps went backwards: " << when << " after "
                                                        << last_time_);
  last_time_ = when;
  validate(when);
}

}  // namespace cosched::audit
