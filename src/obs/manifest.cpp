#include "obs/manifest.hpp"

#include "util/json.hpp"

namespace cosched::obs {

std::string build_flavor() {
#ifdef NDEBUG
  std::string flavor = "release";
#else
  std::string flavor = "debug";
#endif
#if defined(__SANITIZE_ADDRESS__)
  flavor += ",asan";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  flavor += ",asan";
#endif
#endif
#if defined(__SANITIZE_THREAD__)
  flavor += ",tsan";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  flavor += ",tsan";
#endif
#endif
  return flavor;
}

void write_manifest_fields(JsonWriter& w, const RunManifest& m,
                           bool include_execution) {
  w.value("tool", m.tool);
  w.value("command", m.command);
  w.value("strategy", m.strategy);
  w.value("queue_policy", m.queue_policy);
  w.value("workload", m.workload);
  w.value("seed", static_cast<std::int64_t>(m.seed));
  w.value("nodes", m.nodes);
  w.value("jobs", m.jobs);
  if (include_execution) {
    w.begin_object("execution");
    w.value("threads", m.threads);
    w.value("build", m.build.empty() ? build_flavor() : m.build);
    w.end_object();
  }
}

std::string manifest_json(const RunManifest& m, bool include_execution) {
  JsonWriter w;
  w.begin_object();
  write_manifest_fields(w, m, include_execution);
  w.end_object();
  return w.str();
}

}  // namespace cosched::obs
