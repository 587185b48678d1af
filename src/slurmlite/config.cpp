#include "slurmlite/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/scheduler.hpp"
#include "util/check.hpp"
#include "util/input.hpp"

namespace cosched::slurmlite {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string trim(const std::string& s) {
  const auto from = s.find_first_not_of(" \t\r");
  if (from == std::string::npos) return "";
  const auto to = s.find_last_not_of(" \t\r");
  return s.substr(from, to - from + 1);
}

int parse_int(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(value, &pos);
    COSCHED_REQUIRE(pos == value.size(), "trailing characters");
    return v;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error("config key " + key + " expects an integer, got '" + value +
                "'");
  }
}

double parse_number(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    COSCHED_REQUIRE(pos == value.size(), "trailing characters");
    return v;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error("config key " + key + " expects a number, got '" + value +
                "'");
  }
}

/// A number that must be finite and at least `min`. NaN, infinities and
/// out-of-range values fail here, naming the key, instead of reaching the
/// scheduler's and topology's preconditions as an abort.
double parse_at_least(const char* name, const std::string& key,
                      const std::string& value, double min) {
  const double v = parse_number(key, value);
  if (!std::isfinite(v) || v < min) {
    std::ostringstream msg;
    msg << name << " expects a finite number >= " << min << ", got '"
        << value << "'";
    throw Error(msg.str());
  }
  return v;
}

}  // namespace

ControllerConfig parse_config(std::istream& in) {
  ControllerConfig config;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (auto pos = line.find('#'); pos != std::string::npos) {
      line.resize(pos);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    COSCHED_REQUIRE(eq != std::string::npos,
                    "config line " << line_no << ": expected Key=Value");
    const std::string key = lower(trim(line.substr(0, eq)));
    const std::string value = trim(line.substr(eq + 1));
    COSCHED_REQUIRE(!value.empty(),
                    "config line " << line_no << ": empty value for " << key);

    if (key == "nodes") {
      config.nodes = parse_int(key, value);
    } else if (key == "corespernode") {
      config.node_config.cores = parse_int(key, value);
    } else if (key == "threadspercore") {
      config.node_config.smt_per_core = parse_int(key, value);
    } else if (key == "memorypernode") {
      config.node_config.memory_gb = parse_int(key, value);
    } else if (key == "schedulertype") {
      config.strategy = core::parse_strategy(value);
    } else if (key == "oversubscribe") {
      const std::string v = lower(value);
      if (v == "no") {
        config.node_config.smt_per_core = 1;
      } else if (v.rfind("yes", 0) == 0) {
        if (auto colon = v.find(':'); colon != std::string::npos) {
          config.node_config.smt_per_core =
              parse_int(key, v.substr(colon + 1));
        }
      } else {
        throw Error("OverSubscribe expects NO or YES[:N], got '" + value +
                    "'");
      }
    } else if (key == "pairingthreshold") {
      config.scheduler_options.co.pairing_threshold =
          parse_at_least("PairingThreshold", key, value, 0.0);
    } else if (key == "maxdilation") {
      config.scheduler_options.co.max_dilation =
          parse_at_least("MaxDilation", key, value, 1.0);
    } else if (key == "gatemode") {
      const std::string v = lower(value);
      if (v == "oracle") {
        config.scheduler_options.co.gate_mode = core::GateMode::kOracle;
      } else if (v == "class-rule" || v == "classrule") {
        config.scheduler_options.co.gate_mode = core::GateMode::kClassRule;
      } else if (v == "learned") {
        config.scheduler_options.co.gate_mode = core::GateMode::kLearned;
      } else {
        throw Error("GateMode expects oracle|class-rule|learned, got '" +
                    value + "'");
      }
    } else if (key == "walltimeprediction") {
      const std::string v = lower(value);
      COSCHED_REQUIRE(v == "yes" || v == "no",
                      "WalltimePrediction expects YES or NO");
      config.scheduler_options.use_walltime_prediction = (v == "yes");
    } else if (key == "queuepolicy") {
      const std::string v = lower(value);
      if (v == "fifo") {
        config.queue_policy = QueuePolicy::kFifo;
      } else if (v == "priority" || v == "multifactor") {
        config.queue_policy = QueuePolicy::kPriority;
      } else {
        throw Error("QueuePolicy expects fifo|priority, got '" + value +
                    "'");
      }
    } else if (key == "switchsize") {
      config.topology.switch_size = parse_int(key, value);
    } else if (key == "switchpenalty") {
      config.topology.penalty_per_extra_switch =
          parse_at_least("SwitchPenalty", key, value, 0.0);
    } else if (key == "placement") {
      const std::string v = lower(value);
      if (v == "lowest-id" || v == "lowestid") {
        config.placement = cluster::PlacementPolicy::kLowestId;
      } else if (v == "compact") {
        config.placement = cluster::PlacementPolicy::kCompact;
      } else {
        throw Error("Placement expects lowest-id|compact, got '" + value +
                    "'");
      }
    } else if (key == "checkpointinterval") {
      const SimDuration d = parse_duration(value);
      COSCHED_REQUIRE(d >= 0, "CheckpointInterval expects a duration "
                              "([D-]HH:MM:SS), got '" << value << "'");
      config.checkpoint_interval = d;
    } else {
      throw Error("unknown config key '" + key + "' on line " +
                  std::to_string(line_no));
    }
  }
  COSCHED_REQUIRE(config.nodes > 0 && config.nodes <= kMaxNodes,
                  "Nodes must be between 1 and " << kMaxNodes << ", got "
                                                 << config.nodes);
  COSCHED_REQUIRE(config.node_config.cores > 0,
                  "CoresPerNode must be positive");
  COSCHED_REQUIRE(config.node_config.smt_per_core >= 1 &&
                      config.node_config.smt_per_core <= kMaxThreadsPerCore,
                  "ThreadsPerCore (or OverSubscribe=YES:N) must be between 1 "
                  "and " << kMaxThreadsPerCore << ", got "
                         << config.node_config.smt_per_core);
  COSCHED_REQUIRE(config.node_config.memory_gb > 0,
                  "MemoryPerNode must be positive, got "
                      << config.node_config.memory_gb);
  // A negative switch size would silently read as a flat network.
  COSCHED_REQUIRE(config.topology.switch_size >= 0,
                  "SwitchSize must be >= 0 (0 = flat), got "
                      << config.topology.switch_size);
  return config;
}

ControllerConfig parse_config_file(const std::string& path) {
  std::ifstream in;
  COSCHED_REQUIRE(open_input(in, path),
                  "cannot open config file '" << path << "'");
  return parse_config(in);
}

std::string format_config(const ControllerConfig& config) {
  std::ostringstream oss;
  oss << "Nodes=" << config.nodes << "\n"
      << "CoresPerNode=" << config.node_config.cores << "\n"
      << "ThreadsPerCore=" << config.node_config.smt_per_core << "\n"
      << "MemoryPerNode=" << config.node_config.memory_gb << "\n"
      << "SchedulerType=" << core::to_string(config.strategy) << "\n"
      << "OverSubscribe="
      << (config.node_config.smt_per_core > 1
              ? "YES:" + std::to_string(config.node_config.smt_per_core)
              : std::string("NO"))
      << "\n"
      << "PairingThreshold=" << config.scheduler_options.co.pairing_threshold
      << "\n"
      << "MaxDilation=" << config.scheduler_options.co.max_dilation << "\n"
      << "GateMode=" << core::to_string(config.scheduler_options.co.gate_mode)
      << "\n"
      << "WalltimePrediction="
      << (config.scheduler_options.use_walltime_prediction ? "YES" : "NO")
      << "\n"
      << "QueuePolicy="
      << (config.queue_policy == QueuePolicy::kPriority ? "priority" : "fifo")
      << "\n"
      << "SwitchSize=" << config.topology.switch_size << "\n"
      << "SwitchPenalty=" << config.topology.penalty_per_extra_switch << "\n"
      << "Placement=" << cluster::to_string(config.placement) << "\n"
      << "CheckpointInterval=" << format_duration(config.checkpoint_interval)
      << "\n";
  return oss.str();
}

}  // namespace cosched::slurmlite
