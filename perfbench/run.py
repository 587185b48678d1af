#!/usr/bin/env python3
"""CoSched benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
harness (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later runs only let make confirm it is current.

Every simulation is its own harness process, so each one's CPU time and
peak RSS are read from os.wait4. Processes run one after another, never
overlapping, each with one simulation thread.

A run of one seed simulates a fixed list of parts: independent streams whose
seeds derive from --seed. Each part's simulated outcome is seed-determined;
one part's host cost is not steady (the depth of a saturated queue varies a
lot between draws), so a run reports sums over every part. After one pass
over the parts, the parts repeat in order until --seconds have passed, and
each part's timings are the median of its repeats.

--trace 0 prints the end-to-end metrics from untraced runs. --trace 1 prints
the per-layer metrics of part 0: one decision-trace run (event hashing and a
Tracer into an in-process sink), then untraced and timing-trace runs
(observer, source decorator and the library's profiler scopes) in turn until
--seconds have passed. Times are medians over the timing-trace runs.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A check that fails marks every job of that process as failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
INPUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-inputs")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")

# All three use the Trinity catalog and workload::trinity_stream. Why each
# exists and what each ROADMAP item predicts for it: perfbench/README.md.
WORKLOADS = {
    # The co-allocation scan does nearly all the work (>= 90 % of wall in
    # pass_strategy). Offered load 3.0 makes the queue build on every draw;
    # at 1.3 it builds on some draws only and one part's cost varies 4x.
    "coalloc-saturated": dict(nodes=1024, strategy="cobackfill", load=3.0,
                              jobs=1500, retire=True, swf=False, parts=9),
    # Execution model and completion churn dominate; the scan does little.
    "wide-drain": dict(nodes=16384, strategy="cobackfill", load=0.9,
                       jobs=20000, retire=True, swf=False, parts=6),
    # EASY backfill over the busy-ends index, primary-only allocations, a
    # parsed SWF trace replayed materialized, metrics::compute at the end.
    "exclusive-swf": dict(nodes=1024, strategy="easy", load=1.1, jobs=8000,
                          retire=False, swf=True, parts=20),
}

# Untraced/timing-trace run pairs a --trace 1 run makes at least.
MIN_PAIRS = 2
# Fields every simulating mode reports that must agree between the traced
# and untraced runs of one part, and between repeats of one part.
DECISION_FIELDS = ("events_executed", "passes", "starts_primary",
                   "starts_secondary", "completed", "timeouts", "rejected",
                   "sched_eff", "comp_eff", "mean_wait_h", "mean_slowdown")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(SRC_DIR, "CMakeLists.txt")):
        fail(f"no CoSched sources at {SRC_DIR}; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_harness", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def part_seeds(workload, seed):
    """Independent stream seeds of one run; disjoint across run seeds."""
    return [seed * 1000 + i for i in range(WORKLOADS[workload]["parts"])]


def harness_args(mode, workload, part_seed):
    w = WORKLOADS[workload]
    args = [HARNESS, mode, "--nodes", str(w["nodes"]), "--strategy",
            w["strategy"], "--load", repr(w["load"]), "--jobs",
            str(w["jobs"]), "--seed", str(part_seed)]
    if w["retire"]:
        args.append("--retire")
    if w["swf"]:
        args += ["--swf",
                 os.path.join(INPUT_DIR, f"{workload}-{part_seed}.swf")]
    return args


def spawn(args):
    """Runs one harness process to completion.

    Returns (result dict or None on failure, cpu seconds, peak RSS in MB).
    """
    proc = subprocess.Popen(args, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_s = usage.ru_utime + usage.ru_stime
    rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    if proc.returncode != 0:
        return None, cpu_s, rss_mb
    lines = out.decode().strip().splitlines()
    try:
        return json.loads(lines[-1]), cpu_s, rss_mb
    except (IndexError, json.JSONDecodeError):
        return None, cpu_s, rss_mb


def prepare_inputs(workload, seeds):
    """Writes the SWF traces the replay workload reads (untimed)."""
    if not WORKLOADS[workload]["swf"]:
        return
    os.makedirs(INPUT_DIR, exist_ok=True)
    for s in seeds:
        res, _, _ = spawn(harness_args("swf", workload, s))
        if res is None:
            fail(f"could not write the SWF input of part seed {s}")


def outcome_ok(res, jobs):
    """Every job of the part was submitted and reached a final state, and
    none stayed resident."""
    return (res["submitted"] == jobs == res["jobs_total"]
            and res["completed"] + res["timeouts"] + res["rejected"]
            == res["submitted"]
            and res["completed"] == res["metric_completed"]
            and res["timeouts"] == res["metric_timeouts"]
            and res.get("resident", 0) == 0)


def same_decisions(a, b):
    return all(a[k] == b[k] for k in DECISION_FIELDS)


class Tally:
    """attempted/failed bookkeeping: timed-out and rejected jobs fail, and
    every job of a process whose checks fail counts as failed."""

    def __init__(self, jobs_per_part):
        self.jobs = jobs_per_part
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, res, ok):
        """`ok` is false for a process that failed or printed nothing."""
        self.attempted += self.jobs
        if ok:
            self.failed += res["timeouts"] + res["rejected"]
        else:
            self.failed += self.jobs
            self.correct = False


def end_to_end(workload, seed, seconds):
    w = WORKLOADS[workload]
    seeds = part_seeds(workload, seed)
    prepare_inputs(workload, seeds)
    tally = Tally(w["jobs"])
    first = {}
    samples = {s: [] for s in seeds}
    start = time.monotonic()
    rounds = 0
    while rounds == 0 or time.monotonic() - start < seconds:
        for s in seeds:
            if rounds > 0 and time.monotonic() - start >= seconds:
                break
            res, cpu_s, rss_mb = spawn(harness_args("plain", workload, s))
            ok = res is not None and outcome_ok(res, w["jobs"])
            if ok and s in first:
                ok = same_decisions(first[s], res)
            tally.add(res, ok)
            if res is None:
                continue
            first.setdefault(s, res)
            samples[s].append(dict(sim_s=res["sim_s"], setup_s=res["setup_s"],
                                   cpu_s=cpu_s, rss_mb=rss_mb))
        rounds += 1

    def med(s, key):
        return statistics.median(x[key] for x in samples[s])

    measured = [s for s in seeds if samples[s]]
    if not measured:
        return tally, {}
    jobs = sum(first[s]["submitted"] for s in measured)
    metrics = {
        "jobs_per_s": (jobs / sum(med(s, "sim_s") for s in measured),
                       "jobs/s"),
        "cpu_s": (sum(med(s, "cpu_s") for s in measured), "s"),
        "peak_rss_mb": (max(med(s, "rss_mb") for s in measured), "MB"),
        "setup_s": (sum(med(s, "setup_s") for s in measured), "s"),
        "comp_eff": (statistics.fmean(first[s]["comp_eff"] for s in measured),
                     "ratio"),
        "mean_slowdown": (statistics.fmean(first[s]["mean_slowdown"]
                                           for s in measured), "ratio"),
    }
    return tally, metrics


def per_layer(workload, seed, seconds):
    w = WORKLOADS[workload]
    s = part_seeds(workload, seed)[0]
    prepare_inputs(workload, [s])
    tally = Tally(w["jobs"])
    start = time.monotonic()

    def run(mode):
        res, _, _ = spawn(harness_args(mode, workload, s))
        return res

    # Untraced and timing-trace runs alternate, so host drift hits both
    # sides of the overhead ratio alike; spare time buys more pairs.
    decision = run("decision")
    plain, timing = [], []
    while len(plain) < MIN_PAIRS or time.monotonic() - start < seconds:
        plain.append(run("plain"))
        timing.append(run("timing"))
    ref = next((r for r in plain if r is not None), None)
    for res in plain + timing + [decision]:
        ok = (res is not None and ref is not None
              and outcome_ok(res, w["jobs"]) and same_decisions(ref, res))
        if ok and res is decision:
            # One digest per part: observation may not change a decision.
            ok = all(t is not None and t["digest"] == decision["digest"]
                     for t in timing)
        tally.add(res, ok)
    if any(r is None for r in plain + timing + [decision]):
        return tally, {}

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    untraced_s = med(plain, "sim_s")
    t = timing[0]  # counts repeat exactly; times take the median below
    d = decision
    kinds = ("submit", "schedule_pass", "job_end", "timeout")
    m = {
        "sim.wall_s": (med(timing, "wall_s"), "s"),
        "workload.next_calls": (t["next_calls"], "count"),
        "workload.next_s": (med(timing, "next_s"), "s"),
        "trace.swf_bytes": (t["swf_bytes"], "bytes"),
        "trace.swf_records": (t["swf_records"], "count"),
        "trace.parse_s": (med(timing, "parse_s"), "s"),
        "sim.events_executed": (t["events_observed"], "count"),
        "sim.events_scheduled": (t["max_event_id"], "count"),
        "sim.useful_ratio": (t["events_observed"] / t["max_event_id"],
                             "ratio"),
    }
    for k in kinds:
        m[f"sim.events.{k}"] = (t[f"events.{k}"], "count")
        m[f"sim.event_s.{k}"] = (med(timing, f"event_s.{k}"), "s")
    pass_s = med(timing, "pass_s")
    strategy_s = med(timing, "strategy_s")
    settle_s = med(timing, "settle_s")
    secondary = d["starts_secondary"]
    m.update({
        "slurmlite.passes": (t["passes"], "count"),
        "slurmlite.early_exits": (t["prof_pass_calls"]
                                  - t["prof_strategy_calls"], "count"),
        "slurmlite.pass_p50_us": (med(timing, "pass_p50_us"), "us"),
        "slurmlite.pass_p99_us": (med(timing, "pass_p99_us"), "us"),
        "slurmlite.pass_samples": (t["pass_samples"], "count"),
        "slurmlite.settle_s": (settle_s, "s"),
        "slurmlite.sync_s": (pass_s - strategy_s - settle_s, "s"),
        "core.strategy_s": (strategy_s, "s"),
        "core.starts_primary": (t["starts_primary"], "count"),
        "core.starts_secondary": (t["starts_secondary"], "count"),
        "core.co_decisions": (d["co_decisions"], "count"),
        "core.co_accepted": (d["co_accepted"], "count"),
        "core.co_scanned": (d["co_scanned"], "count"),
        "core.co_admissible": (d["co_admissible"], "count"),
        "core.co_accept_ratio": (d["co_accepted"] / d["co_decisions"]
                                 if d["co_decisions"] else 0.0, "ratio"),
        "core.scanned_per_secondary_start": (
            d["co_scanned"] / secondary if secondary else 0.0, "count"),
        "core.shadows": (d["shadows"], "count"),
        "core.backfill_rejects": (d["backfill_rejects"], "count"),
        "cluster.allocs_primary": (d["allocs_primary"], "count"),
        "cluster.allocs_secondary": (d["allocs_secondary"], "count"),
        "cluster.releases": (d["releases"], "count"),
        "cluster.replay_s": (d["replay_s"], "s"),
        "metrics.compute_s": (med(timing, "metrics_s"), "s"),
        "metrics.sched_eff": (t["sched_eff"], "ratio"),
        "metrics.mean_wait_h": (t["mean_wait_h"], "h"),
        "obs.trace_records": (d["trace_records"], "count"),
        "obs.trace_bytes": (d["trace_bytes"], "bytes"),
        "obs.trace_overhead": (d["wall_s"] / untraced_s - 1.0, "ratio"),
        "obs.profile_overhead": (statistics.median(
            tr["wall_s"] / pl["sim_s"] for pl, tr in zip(plain, timing))
            - 1.0, "ratio"),
        "unattributed_s": (med(timing, "unattributed_s"), "s"),
    })
    # Not a metric: the digest lets a later run of this seed be compared.
    print(json.dumps({"workload": workload, "part_seed": s,
                      "digest": d["digest"], "untraced_s": untraced_s,
                      "timing_runs": len(timing)}))
    return tally, m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**53:
        fail("--seed must be in [0, 2**53)")
    build()
    run = per_layer if args.trace else end_to_end
    tally, metrics = run(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
