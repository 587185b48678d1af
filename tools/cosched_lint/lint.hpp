// cosched_lint: project-specific static analysis for the CoSched tree.
//
// The simulator's evidentiary value rests on determinism, so the lint
// bans the classic ways nondeterminism leaks into C++ simulation code and
// a few hygiene hazards:
//
//   no-rand                  rand/srand/drand48/random_device/random_shuffle
//                            (use cosched::Pcg32, util/rng.hpp)
//   no-wallclock             chrono system/steady/high_resolution clocks,
//                            gettimeofday/clock_gettime, and argless time()
//                            (use sim::Engine::now())
//   no-unordered-iteration   range-for over an unordered_map/unordered_set
//                            in decision-path code (src/core, src/sim,
//                            src/slurmlite) — hash order is not specified
//   no-float-equality        == / != against a floating-point literal
//   no-using-namespace-std   `using namespace std` in a header
//   include-guard            header lacks #pragma once (or a classic guard)
//   no-raw-thread            bare std::thread outside src/runner/
//   no-raw-stdio             std::cerr / printf-family calls in src/
//                            outside src/util/log and src/obs/ (use the
//                            COSCHED_WARN/COSCHED_ERROR macros or an obs/
//                            sink; snprintf formats, so it stays legal)
//   no-std-function          std::function in src/sim and src/core hot paths
//   no-sim-map               std::map/unordered_map keyed per event in src/sim
//   no-per-pass-alloc        std::vector constructed inside a loop body in
//                            decision-path code — one malloc/free pair per
//                            scanned node/gate (hoist it out of the loop
//                            or into a member and reuse its capacity)
//
// A finding on a line is silenced by a trailing
//   // cosched-lint: allow(<rule>[, <rule>...])    (or allow(*))
// comment on that same line. Fixture files for the self-test declare the
// findings they must produce with
//   // cosched-lint: expect(<rule>)
//
// The deeper scope-aware passes (symbol table + cross-line data flow) live
// in analyze.hpp and run under `cosched analyze` / `cosched_lint --analyze`.
//
// The tool is standalone (no cosched library dependencies) so it can lint
// the very code that implements the simulator.
#pragma once

#include <string>
#include <vector>

#include "token.hpp"

namespace cosched::lint {

/// Lints the whole file set. A single call sees every file so that
/// unordered containers declared in one file (a header) are recognised
/// when iterated in another (its .cpp). Findings are sorted by
/// (file, line, col, rule); suppressed findings are dropped.
std::vector<Finding> run_lint(const std::vector<SourceFile>& files);

const std::vector<std::string>& rule_names();

}  // namespace cosched::lint
