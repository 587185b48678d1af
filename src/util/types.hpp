// Fundamental scalar types shared by every CoSched subsystem.
//
// Simulation time is kept in integer microseconds so that event ordering is
// exact and runs are bit-reproducible across platforms; helpers convert to
// and from floating-point seconds at the API boundary only.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace cosched {

/// Simulation time in integer microseconds since simulation start.
using SimTime = std::int64_t;

/// Duration in integer microseconds.
using SimDuration = std::int64_t;

/// Identifier types. Separate aliases keep signatures self-describing.
using JobId = std::int64_t;
using NodeId = std::int32_t;
using AppId = std::int32_t;

inline constexpr JobId kInvalidJob = -1;
inline constexpr NodeId kInvalidNode = -1;
inline constexpr SimTime kTimeInfinity = std::numeric_limits<SimTime>::max();

inline constexpr SimDuration kMicrosecond = 1;
inline constexpr SimDuration kMillisecond = 1'000;
inline constexpr SimDuration kSecond = 1'000'000;
inline constexpr SimDuration kMinute = 60 * kSecond;
inline constexpr SimDuration kHour = 60 * kMinute;
inline constexpr SimDuration kDay = 24 * kHour;

/// The largest time accepted from an input, in seconds (an SWF time field,
/// a generated arrival, a period flag): a quarter of the SimTime range, so
/// a submit time plus a walltime limit stays representable in
/// microseconds.
inline constexpr std::int64_t kMaxInputSeconds = kTimeInfinity / kSecond / 4;

/// The widest machine accepted from an input (the Nodes config key, a
/// --nodes flag): 32 times the widest benchmarked machine.
inline constexpr int kMaxNodes = 1 << 20;

/// The largest SMT degree accepted from an input (ThreadsPerCore,
/// OverSubscribe=YES:N): every node keeps one job slot per thread.
inline constexpr int kMaxThreadsPerCore = 8;

/// Converts floating-point seconds to integer simulation time (rounds to
/// nearest microsecond; negative inputs round symmetrically).
constexpr SimTime from_seconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kSecond) +
                              (s >= 0 ? 0.5 : -0.5));
}

/// Converts simulation time to floating-point seconds.
constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Formats a duration as "[D-]HH:MM:SS" (SLURM timelimit style).
std::string format_duration(SimDuration d);

/// Parses "SS", "MM:SS", "HH:MM:SS" or "D-HH:MM:SS" into a duration.
/// Returns -1 on malformed input.
SimDuration parse_duration(const std::string& text);

}  // namespace cosched
