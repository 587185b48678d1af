// Replays a Standard Workload Format (SWF) trace through the simulator —
// the workflow for evaluating node-sharing strategies against a site's own
// accounting data. Without --trace, a synthetic trace is generated, written
// to disk, and replayed, so the example is runnable out of the box.
//
//   ./swf_replay [--trace=path/to/trace.swf] [--strategy=cobackfill]
//                [--nodes=32] [--max-jobs=500] [--out=replayed.swf]
#include <iostream>

#include "slurmlite/formatters.hpp"
#include "slurmlite/simulation.hpp"
#include "trace/swf.hpp"
#include "util/flags.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace cosched;
  try {
    const Flags flags(argc, argv);
    const std::string trace_path = flags.get_string("trace", "");
    const auto strategy =
        core::parse_strategy(flags.get_string("strategy", "cobackfill"));
    const int nodes = flags.get_int_in("nodes", 32, 1, kMaxNodes);
    const int max_jobs = flags.get_int_in("max-jobs", 500, 1);
    const std::string out_path = flags.get_string("out", "");
    for (const auto& unknown : flags.unused()) {
      std::cerr << "unknown flag --" << unknown << "\n";
      return 2;
    }

    const auto catalog = apps::Catalog::trinity();
    workload::JobList jobs;
    if (trace_path.empty()) {
      // No trace supplied: synthesize one, archive it, and replay it —
      // demonstrating both directions of the SWF pipeline.
      workload::Generator generator(
          workload::trinity_stream(nodes, max_jobs, 0.9), catalog);
      Pcg32 rng(2024);
      jobs = generator.generate(rng);
      const std::string synth_path = "synthetic_trace.swf";
      trace::write_swf_file(synth_path, trace::jobs_to_swf(jobs),
                            "synthetic Trinity stream, rho=0.9");
      std::cout << "no --trace given; wrote and replaying " << synth_path
                << "\n";
      jobs = trace::jobs_from_swf(trace::read_swf_file(synth_path),
                                  catalog.size());
    } else {
      jobs = trace::jobs_from_swf(trace::read_swf_file(trace_path),
                                  catalog.size());
      std::cout << "read " << jobs.size() << " jobs from " << trace_path
                << "\n";
    }
    if (jobs.size() > static_cast<std::size_t>(max_jobs)) {
      jobs.resize(static_cast<std::size_t>(max_jobs));
    }
    // SWF traces carry no shareability flag; assume the app default.
    for (auto& job : jobs) {
      job.shareable = catalog.get(job.app).shareable;
    }

    slurmlite::SimulationSpec spec;
    spec.controller.nodes = nodes;
    spec.controller.strategy = strategy;
    const auto result = slurmlite::run_jobs(spec, catalog, jobs);

    std::cout << "\nreplayed " << result.jobs.size() << " jobs under '"
              << core::to_string(strategy) << "' on " << nodes
              << " nodes\n\n"
              << slurmlite::metrics_summary(result.metrics);

    if (!out_path.empty()) {
      trace::write_swf_file(out_path, trace::jobs_to_swf(result.jobs),
                            "replayed under " +
                                std::string(core::to_string(strategy)));
      std::cout << "\nwrote replayed schedule to " << out_path << "\n";
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
