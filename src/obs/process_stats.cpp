#include "obs/process_stats.hpp"

#include <fstream>
#include <thread>

#include "util/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define COSCHED_HAVE_GETRUSAGE 1
#endif

#if defined(__linux__)
#include <unistd.h>
#define COSCHED_HAVE_PROC_STATM 1
#endif

namespace cosched::obs {

ProcessStats process_stats() {
  ProcessStats stats;
#ifdef COSCHED_HAVE_GETRUSAGE
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#ifdef __APPLE__
    stats.max_rss_mb = static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
    stats.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
    auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    };
    stats.user_cpu_s = seconds(usage.ru_utime);
    stats.sys_cpu_s = seconds(usage.ru_stime);
  }
#endif
  stats.hardware_concurrency =
      static_cast<int>(std::thread::hardware_concurrency());
  return stats;
}

double current_rss_mb() {
#ifdef COSCHED_HAVE_PROC_STATM
  // statm field 2 is resident pages; current (not peak), so repeated
  // samples can show a flat curve where getrusage's high-water mark only
  // shows the worst moment.
  std::ifstream statm("/proc/self/statm");
  long long total_pages = 0;
  long long resident_pages = 0;
  if (statm >> total_pages >> resident_pages) {
    const long page = sysconf(_SC_PAGESIZE);
    return static_cast<double>(resident_pages) *
           static_cast<double>(page > 0 ? page : 4096) / (1024.0 * 1024.0);
  }
#endif
  return 0;
}

std::string process_stats_json(const ProcessStats& stats) {
  JsonWriter w;
  w.begin_object();
  w.value("max_rss_mb", stats.max_rss_mb);
  w.value("user_cpu_s", stats.user_cpu_s);
  w.value("sys_cpu_s", stats.sys_cpu_s);
  w.value("hardware_concurrency", stats.hardware_concurrency);
  w.end_object();
  return w.str();
}

}  // namespace cosched::obs
