// Preset workload campaigns used by the reproduction benches.
//
// `trinity` is the paper-style campaign: a burst of Trinity mini-app jobs
// with a capability-class size mix. The skewed variants (all memory-bound /
// all compute-bound) exercise the crossover acceptance criterion: when
// nothing pairs well, co-allocation must not lose to its baseline.
#pragma once

#include "apps/catalog.hpp"
#include "workload/generator.hpp"

namespace cosched::workload {

/// The default Trinity campaign on `machine_nodes` nodes with `job_count`
/// jobs: uniform draw over the eight mini-apps, capability size mix capped
/// at the machine size.
GeneratorParams trinity_campaign(int machine_nodes, int job_count);

/// Same shape but only memory-bandwidth-bound apps get weight (miniFE,
/// SNAP, MILC, AMG): the adversarial mix where sharing cannot win.
GeneratorParams memory_bound_campaign(int machine_nodes, int job_count);

/// Only compute-leaning apps (GTC, miniDFT, UMT): pairs gain modestly.
GeneratorParams compute_bound_campaign(int machine_nodes, int job_count);

/// Stream variant of the Trinity mix at the given offered load.
GeneratorParams trinity_stream(int machine_nodes, int job_count,
                               double offered_load);

}  // namespace cosched::workload
