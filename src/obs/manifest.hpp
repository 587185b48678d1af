// Run manifest: a deterministic self-describing header stamped into every
// trace, metrics, report, and bench JSON artifact.
//
// The manifest splits into two layers with different comparison
// semantics:
//
//   * decision identity — the fields that determine every scheduling
//     decision (strategy, seed, queue kinds, node/job counts, workload).
//     Two artifacts with equal decision identities must describe
//     byte-identical event streams; `cosched diff` treats a mismatch
//     here as a configuration error, not a divergence.
//
//   * execution — how the run was carried out (runner threads, build
//     flavor). These may differ between runs that are required to agree
//     byte-for-byte (that is the paper's whole claim), so `cosched diff`
//     and `cosched report` strip the execution block before comparing.
//     Ingestion is not among them: every run pulls its workload through
//     the one arrival path, so it has no execution field.
//
// Emission is a caller decision: the CLI / bench harness stamps the
// manifest as the first record; library code and tests that construct a
// Tracer directly get no manifest, so existing goldens are unaffected.
#pragma once

#include <cstdint>
#include <string>

namespace cosched {
class JsonWriter;
}

namespace cosched::obs {

struct RunManifest {
  // --- decision identity ---
  std::string tool = "cosched";  ///< producing binary ("cosched", a bench)
  std::string command;           ///< subcommand or bench cell name
  std::string strategy;
  std::string queue_policy;      ///< controller queue: "fifo" / "priority"
  std::string workload;          ///< campaign name or SWF path
  std::uint64_t seed = 0;
  int nodes = 0;
  std::int64_t jobs = 0;

  // --- execution (non-semantic: stripped before byte-comparisons) ---
  int threads = 1;
  std::string build;             ///< compile-time flavor, see build_flavor()
};

/// Compile-time build flavor of the producing binary: "release" or
/// "debug", with ",asan"/",tsan" appended under those sanitizers. Stable
/// per build, so two artifacts from the same binary always agree.
std::string build_flavor();

/// Writes the manifest's fields into an already-open JSON object; the
/// execution block nests under an "execution" key and is omitted when
/// `include_execution` is false.
void write_manifest_fields(JsonWriter& w, const RunManifest& m,
                           bool include_execution);

/// The manifest as one standalone JSON object.
std::string manifest_json(const RunManifest& m, bool include_execution);

}  // namespace cosched::obs
