#include "lint.hpp"

#include <set>
#include <string>

namespace cosched::lint {

namespace {

// --- Rules -------------------------------------------------------------------

const std::set<std::string>& rand_idents() {
  static const std::set<std::string> s = {
      "rand", "srand", "drand48", "srand48", "random_device",
      "random_shuffle"};
  return s;
}

const std::set<std::string>& wallclock_idents() {
  static const std::set<std::string> s = {
      "system_clock", "steady_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime"};
  return s;
}

void scan_banned_idents(const std::vector<Token>& tokens,
                        const SourceFile& file,
                        std::vector<Finding>& findings) {
  // Wall-clock reads are legal only in the blessed observability seams:
  // the profiler/process probes under src/obs/ and the log timestamper in
  // src/util/log. Simulation and strategy code gets sim time from
  // sim::Engine::now(); timing goes through obs::detail::prof_now_ns().
  const bool wallclock_exempt =
      file.path.find("src/obs/") != std::string::npos ||
      file.path.find("src/util/log") != std::string::npos;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != Token::Kind::kIdent) continue;
    // Member access (job.time(...)) is a project accessor, not libc.
    const bool member_access =
        i > 0 && (tokens[i - 1].text == "." || tokens[i - 1].text == "->");
    if (rand_idents().count(t.text) && !member_access) {
      findings.push_back({file.path, t.line, t.col, "no-rand",
                          "banned nondeterministic RNG '" + t.text + "'",
                          "use cosched::Pcg32 (util/rng.hpp)"});
      continue;
    }
    if (wallclock_idents().count(t.text) && !member_access &&
        !wallclock_exempt) {
      findings.push_back({file.path, t.line, t.col, "no-wallclock",
                          "wall-clock source '" + t.text +
                              "' in simulation code",
                          "use sim::Engine::now()"});
      continue;
    }
    if (t.text == "time" && !member_access && !wallclock_exempt &&
        i + 2 < tokens.size() && tokens[i + 1].text == "(") {
      const Token& arg = tokens[i + 2];
      const bool argless =
          arg.text == ")" ||
          ((arg.text == "0" || arg.text == "NULL" || arg.text == "nullptr") &&
           i + 3 < tokens.size() && tokens[i + 3].text == ")");
      if (argless) {
        findings.push_back({file.path, t.line, t.col, "no-wallclock",
                            "argless time() reads the wall clock",
                            "use sim::Engine::now()"});
      }
    }
  }
}

void scan_float_equality(const std::vector<Token>& tokens,
                         const SourceFile& file,
                         std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.text != "==" && t.text != "!=") continue;
    const bool prev_float = i > 0 &&
                            tokens[i - 1].kind == Token::Kind::kNumber &&
                            tokens[i - 1].is_float;
    const bool next_float = i + 1 < tokens.size() &&
                            tokens[i + 1].kind == Token::Kind::kNumber &&
                            tokens[i + 1].is_float;
    if (prev_float || next_float) {
      findings.push_back({file.path, t.line, t.col, "no-float-equality",
                          "exact comparison against a floating-point "
                          "literal",
                          "compare with a tolerance"});
    }
  }
}

void scan_using_namespace_std(const std::vector<Token>& tokens,
                              const SourceFile& file,
                              std::vector<Finding>& findings) {
  if (!is_header(file.path)) return;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].text == "using" && tokens[i + 1].text == "namespace" &&
        tokens[i + 2].text == "std") {
      findings.push_back({file.path, tokens[i].line, tokens[i].col,
                          "no-using-namespace-std",
                          "'using namespace std' in a header pollutes "
                          "every includer",
                          "qualify names or alias inside a function"});
    }
  }
}

void scan_include_guard(const SourceFile& file,
                        std::vector<Finding>& findings) {
  if (!is_header(file.path)) return;
  std::vector<std::string> directives;
  for (const std::string& line : file.code) {
    std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] != '#') continue;
    ++i;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && is_ident_char(line[j])) ++j;
    std::string directive = line.substr(i, j - i);
    if (directive == "pragma") {
      while (j < line.size() && (line[j] == ' ' || line[j] == '\t')) ++j;
      std::size_t k = j;
      while (k < line.size() && is_ident_char(line[k])) ++k;
      directive += " " + line.substr(j, k - j);
    }
    directives.push_back(std::move(directive));
  }
  for (const std::string& d : directives) {
    if (d == "pragma once") return;
  }
  if (directives.size() >= 2 && directives[0] == "ifndef" &&
      directives[1] == "define") {
    return;  // classic include guard
  }
  findings.push_back({file.path, 1, 1, "include-guard",
                      "header has neither #pragma once nor an include "
                      "guard",
                      "add #pragma once as the first directive"});
}

/// Names of variables (locals, members, parameters) declared with an
/// unordered container type, collected across the whole file set.
std::set<std::string> collect_unordered_names(
    const std::vector<std::vector<Token>>& token_streams) {
  std::set<std::string> names;
  for (const auto& tokens : token_streams) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i].text != "unordered_map" &&
          tokens[i].text != "unordered_set" &&
          tokens[i].text != "unordered_multimap" &&
          tokens[i].text != "unordered_multiset") {
        continue;
      }
      std::size_t j = i + 1;
      if (j < tokens.size() && tokens[j].text == "<") {
        int depth = 0;
        for (; j < tokens.size(); ++j) {
          if (tokens[j].text == "<") ++depth;
          if (tokens[j].text == "<<") depth += 2;
          if (tokens[j].text == ">") --depth;
          if (tokens[j].text == ">>") depth -= 2;
          if (depth == 0) {
            ++j;
            break;
          }
        }
      }
      while (j < tokens.size() &&
             (tokens[j].text == "&" || tokens[j].text == "*" ||
              tokens[j].text == "const")) {
        ++j;
      }
      if (j + 1 >= tokens.size()) continue;
      if (tokens[j].kind != Token::Kind::kIdent) continue;
      const std::string& next = tokens[j + 1].text;
      if (next == ";" || next == "=" || next == "{" || next == "," ||
          next == ")") {
        names.insert(tokens[j].text);
      }
    }
  }
  return names;
}

void scan_unordered_iteration(const std::vector<Token>& tokens,
                              const SourceFile& file,
                              const std::set<std::string>& unordered_names,
                              std::vector<Finding>& findings) {
  if (!in_decision_path(file.path)) return;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].text != "for" || tokens[i + 1].text != "(") continue;
    // Find the loop header's extent and its top-level ':' (a ';' first
    // means a classic three-clause for).
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      if (tokens[j].text == "(") ++depth;
      if (tokens[j].text == ")") {
        --depth;
        if (depth == 0) {
          close = j;
          break;
        }
      }
      if (depth == 1 && colon == 0) {
        if (tokens[j].text == ";") break;  // not a range-for
        if (tokens[j].text == ":") colon = j;
      }
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (tokens[j].kind == Token::Kind::kIdent &&
          unordered_names.count(tokens[j].text)) {
        findings.push_back(
            {file.path, tokens[j].line, tokens[j].col,
             "no-unordered-iteration",
             "range-for over unordered container '" + tokens[j].text +
                 "' in decision-path code; hash order is unspecified",
             "use an ordered container or iterate a sorted copy"});
        break;
      }
    }
  }
}

/// Thread spawns are confined to src/runner/ (the ParallelRunner): one
/// audited pool instead of ad-hoc threads, so the share-nothing and
/// determinism contracts have a single enforcement point.
void scan_raw_thread(const std::vector<Token>& tokens, const SourceFile& file,
                     std::vector<Finding>& findings) {
  if (file.path.find("src/runner/") != std::string::npos) return;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (t.text != "thread" && t.text != "jthread") continue;
    if (tokens[i - 1].text != "::" || tokens[i - 2].text != "std") continue;
    // std::thread::hardware_concurrency() and other statics are queries,
    // not spawns.
    if (i + 1 < tokens.size() && tokens[i + 1].text == "::") continue;
    findings.push_back({file.path, t.line, t.col, "no-raw-thread",
                        "bare std::" + t.text + " outside src/runner/",
                        "route parallelism through runner::ParallelRunner"});
  }
}

/// Library code must not write diagnostics to raw stdio: logging goes
/// through util/log (level-filtered, thread-safe) and structured output
/// through the obs/ sinks, so those two directories are the only exempt
/// ones under src/. snprintf stays legal — it formats strings, it does
/// not perform I/O.
const std::set<std::string>& stdio_idents() {
  static const std::set<std::string> s = {"printf", "fprintf", "vprintf",
                                          "vfprintf", "puts", "fputs"};
  return s;
}

void scan_raw_stdio(const std::vector<Token>& tokens, const SourceFile& file,
                    std::vector<Finding>& findings) {
  if (file.path.find("src/") == std::string::npos) return;
  if (file.path.find("src/util/log") != std::string::npos) return;
  if (file.path.find("src/obs/") != std::string::npos) return;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != Token::Kind::kIdent) continue;
    const bool member_access =
        i > 0 && (tokens[i - 1].text == "." || tokens[i - 1].text == "->");
    if (member_access) continue;
    if (t.text == "cerr") {
      findings.push_back({file.path, t.line, t.col, "no-raw-stdio",
                          "std::cerr in library code",
                          "use COSCHED_WARN / COSCHED_ERROR "
                          "(util/log.hpp)"});
      continue;
    }
    if (stdio_idents().count(t.text) && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      findings.push_back({file.path, t.line, t.col, "no-raw-stdio",
                          "raw '" + t.text + "' in library code",
                          "use COSCHED_WARN / COSCHED_ERROR (util/log.hpp) "
                          "or an obs/ sink"});
    }
  }
}

/// The simulation and strategy hot paths must not construct std::function:
/// each one heap-allocates its callable (the sim::Engine replaced exactly
/// that with a pooled slab — see src/sim/engine.hpp). Event payloads go
/// through Engine::schedule_at's templated parameter; a callable passed
/// down one call takes a template parameter (as Machine::for_each_busy_end
/// does). Deliberate seams (cold setup code that genuinely needs
/// ownership) opt out with `cosched-lint: allow(no-std-function)`.
void scan_std_function(const std::vector<Token>& tokens,
                       const SourceFile& file,
                       std::vector<Finding>& findings) {
  const bool hot_path = file.path.find("src/sim/") != std::string::npos ||
                        file.path.find("src/core/") != std::string::npos;
  if (!hot_path) return;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != Token::Kind::kIdent || t.text != "function") continue;
    if (tokens[i - 1].text != "::" || tokens[i - 2].text != "std") continue;
    findings.push_back(
        {file.path, t.line, t.col, "no-std-function",
         "std::function in a hot path heap-allocates per callable",
         "use the engine's templated schedule_at, or take the callable "
         "as a template parameter"});
  }
}

/// The event engine's per-event state must stay flat: a std::map /
/// std::unordered_map keyed per scheduled or executed event costs a tree
/// walk or hash-and-chase on the hottest loop in the simulator. src/sim
/// keeps dense vectors indexed by EventId and pooled slots instead (see
/// engine.hpp's slot_of_id_). Genuinely cold uses opt out with
/// `cosched-lint: allow(no-sim-map)`.
void scan_sim_map(const std::vector<Token>& tokens, const SourceFile& file,
                  std::vector<Finding>& findings) {
  if (file.path.find("src/sim/") == std::string::npos) return;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (t.text != "map" && t.text != "unordered_map" &&
        t.text != "multimap" && t.text != "unordered_multimap") {
      continue;
    }
    if (tokens[i - 1].text != "::" || tokens[i - 2].text != "std") continue;
    findings.push_back(
        {file.path, t.line, t.col, "no-sim-map",
         "std::" + t.text + " in src/sim: per-event keyed lookups are "
         "too slow for the event engine's hot path",
         "use dense vectors indexed by EventId/slot (see engine.hpp)"});
  }
}

/// Per-pass allocation: a std::vector constructed inside a loop body in
/// decision-path code costs a malloc/free pair per scanned node or gate —
/// at 16k+ nodes that is the dominant pass cost class the reused member
/// buffers remove (DESIGN.md "Node-width sublinear indexes"). The rule
/// flags `std::vector<...> name` declarations (by value; reference
/// bindings allocate nothing) whose token lies inside a for/while body.
/// Loops that run once per pass or sit on genuinely cold paths opt out
/// with `cosched-lint: allow(no-per-pass-alloc)`.
void scan_per_pass_alloc(const std::vector<Token>& tokens,
                         const SourceFile& file,
                         std::vector<Finding>& findings) {
  if (!in_decision_path(file.path)) return;
  // Pass 1: collect the token ranges of loop bodies ({...} after a
  // for/while header). Nested loops simply contribute nested ranges.
  std::vector<std::pair<std::size_t, std::size_t>> bodies;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].text != "for" && tokens[i].text != "while") continue;
    if (tokens[i + 1].text != "(") continue;
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < tokens.size(); ++j) {
      if (tokens[j].text == "(") ++depth;
      if (tokens[j].text == ")" && --depth == 0) break;
    }
    if (j + 1 >= tokens.size() || tokens[j + 1].text != "{") continue;
    std::size_t open = j + 1;
    int braces = 0;
    std::size_t close = open;
    for (; close < tokens.size(); ++close) {
      if (tokens[close].text == "{") ++braces;
      if (tokens[close].text == "}" && --braces == 0) break;
    }
    bodies.emplace_back(open, close);
  }
  if (bodies.empty()) return;
  const auto in_loop_body = [&bodies](std::size_t i) {
    for (const auto& [open, close] : bodies) {
      if (i > open && i < close) return true;
    }
    return false;
  };
  // Pass 2: flag by-value std::vector declarations inside those ranges.
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    if (tokens[i].text != "vector" || tokens[i].kind != Token::Kind::kIdent) {
      continue;
    }
    if (tokens[i - 1].text != "::" || tokens[i - 2].text != "std") continue;
    if (!in_loop_body(i)) continue;
    // Skip the template argument list.
    std::size_t j = i + 1;
    if (j < tokens.size() && tokens[j].text == "<") {
      int depth = 0;
      for (; j < tokens.size(); ++j) {
        if (tokens[j].text == "<") ++depth;
        if (tokens[j].text == "<<") depth += 2;
        if (tokens[j].text == ">") --depth;
        if (tokens[j].text == ">>") depth -= 2;
        if (depth == 0) {
          ++j;
          break;
        }
      }
    }
    // A reference binding (`&`) allocates nothing; `*` is a pointer decl.
    if (j < tokens.size() && (tokens[j].text == "&" || tokens[j].text == "*")) {
      continue;
    }
    if (j + 1 >= tokens.size()) continue;
    if (tokens[j].kind != Token::Kind::kIdent) continue;
    const std::string& next = tokens[j + 1].text;
    if (next != ";" && next != "=" && next != "{" && next != "(") continue;
    findings.push_back(
        {file.path, tokens[i].line, tokens[i].col, "no-per-pass-alloc",
         "std::vector constructed inside a decision-path loop: one "
         "malloc/free per iteration",
         "hoist the vector out of the loop (or into a member) and reuse "
         "its capacity"});
  }
}

}  // namespace

// --- Public API --------------------------------------------------------------

std::vector<Finding> run_lint(const std::vector<SourceFile>& files) {
  std::vector<std::vector<Token>> token_streams;
  token_streams.reserve(files.size());
  for (const SourceFile& file : files) {
    token_streams.push_back(tokenize(file.code));
  }
  const std::set<std::string> unordered_names =
      collect_unordered_names(token_streams);

  std::vector<Finding> findings;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const SourceFile& file = files[i];
    const std::vector<Token>& tokens = token_streams[i];
    std::vector<Finding> local;
    scan_banned_idents(tokens, file, local);
    scan_float_equality(tokens, file, local);
    scan_using_namespace_std(tokens, file, local);
    scan_include_guard(file, local);
    scan_unordered_iteration(tokens, file, unordered_names, local);
    scan_raw_thread(tokens, file, local);
    scan_raw_stdio(tokens, file, local);
    scan_std_function(tokens, file, local);
    scan_sim_map(tokens, file, local);
    scan_per_pass_alloc(tokens, file, local);
    for (Finding& f : local) {
      if (!suppressed(file, f.line, f.rule)) {
        findings.push_back(std::move(f));
      }
    }
  }
  sort_findings(findings);
  return findings;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      "no-rand",
      "no-wallclock",
      "no-unordered-iteration",
      "no-float-equality",
      "no-using-namespace-std",
      "include-guard",
      "no-raw-thread",
      "no-raw-stdio",
      "no-std-function",
      "no-sim-map",
      "no-per-pass-alloc",
  };
  return names;
}

}  // namespace cosched::lint
