#!/usr/bin/env python3
"""The robmon benchmark: one command per (workload, seed) run.

    python3 robmonbench/run.py --workload hot-monitor|shim|fleet \\
        --seed N --seconds S --trace 0|1

(fleet runs but is not one of BENCHMARK.json's workloads; see UNBENCHMARKED.)

Run from the root of a robmon checkout.  Builds the benchmark package
(robmonbench/CMakeLists.txt, which builds robmon itself from ../src) into
.bench_build/robmonbench, runs the arithmetic self-test, runs the workload,
checks its outputs, and prints as the last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (untraced run, robmon
timed in windows alternating with a plain reference doing the same ops);
with --trace 1 they are the per-layer ones (traced run).  The line before it is
a detail object: host block, sample counts, check results.  Spans of traced
runs are written to .bench_build/robmonbench/out/.

    python3 robmonbench/run.py --write-spec   # regenerate BENCHMARK.json

See robmonbench/README.md for the workloads and the meaning of each metric.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "robmonbench")
OUT = os.path.join(BUILD, "out")
BUILD_TYPE = "Release"
RUN_SECONDS = 30
# An untraced run splits its seconds over this many fresh processes and
# reports each end-to-end figure as the median over them, so no single
# process's stall or memory layout sets a figure and setup_s has as many
# samples.
PROCESSES = 15
# Length of the traced runs of the other workloads that fill the layers a
# traced workload does not enter.  fleet's must close enough deadlock
# cycles (about 60/s) to leave ten detections beyond their p95.
COMPANION_SECONDS = {"hot-monitor": 2, "fleet": 6, "shim": 2}
RUN_BUDGET_S = 170     # every process after the build ends within this
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS = [
    ("hot-monitor", "closed loop on 2 monitors, short check period, gate held: "
                    "per-event gathering and checking costs dominate"),
    ("shim", "unmodified pthread program under LD_PRELOAD: the interposition "
             "adapter and registry dominate, the native monitor never runs"),
]
# Runs like the others and prints the same figures, and its traced runs
# supply the pool, checkpoint, detection and recovery layers to the traced
# runs of the others, but it is not in BENCHMARK.json: its ops are
# memory-bound and its plain reference's are not, so host load moves the
# two differently and its ratios spread past any bound the contract allows
# (README.md gives the figures).
UNBENCHMARKED = [
    ("fleet", "open loop over 256 monitors with injected faults and deadlocks: "
              "fixed per-check cost, checkpoint folds and recovery dominate"),
]

# (name, unit, better, bound as a share of the parent's median).  Only
# figures that stay steady on a shared virtual machine are bounded: the op
# cost is bounded as robmon's over a plain reference's, timed in alternating
# windows of the same process (the paper's overhead ratio), because the
# absolute figures follow the host's speed; see REPORTED below and
# README.md.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("setup_rss_mb", "MB", "lower", 0.1),
    ("op_p50_ratio", "ratio", "lower", 0.25),
    ("cpu_ratio", "ratio", "lower", 0.25),
]

# Measured in every untraced run and printed, with their sample counts, in
# the detail line, but not bounded: on a shared virtual machine they move
# with the host's clock speed, with the CPU time the host steals, with how
# busy the other tenants keep memory, or with the longest stall of a run
# (peak_rss_mb: every process of a shim run read about 13.7 MB in one run
# and 16.3 MB in the next); README.md gives the figures.  ref_* are the
# plain reference's.
REPORTED = ["ops_per_s", "op_p50_us", "op_p90_us", "op_p99_us",
            "cpu_ns_per_op", "ref_op_p50_us", "ref_cpu_ns_per_op",
            "peak_rss_mb"]

# (name, unit, better)
PER_LAYER = [
    ("runtime.enter_ns", "ns", "lower"),
    ("runtime.wait_ns", "ns", "lower"),
    ("runtime.signal_exit_ns", "ns", "lower"),
    ("runtime.exit_ns", "ns", "lower"),
    ("runtime.snapshot_ns", "ns", "lower"),
    ("runtime.uninstrumented_pair_ns", "ns", "lower"),
    ("trace.append_ns", "ns", "lower"),
    ("trace.drain_ns_per_event", "ns", "lower"),
    ("trace.events_per_check", "count", "higher"),
    ("trace.events_lost", "count", "lower"),
    ("trace.overhead_cpu_frac", "ratio", "lower"),
    ("core.check_ns_per_event", "ns", "lower"),
    ("core.alg1_ns_per_event", "ns", "lower"),
    ("core.alg2_ns", "ns", "lower"),
    ("core.alg3_ns_per_event", "ns", "lower"),
    ("core.violations", "count", "lower"),
    ("core.check_empty_ns", "ns", "lower"),
    ("pool.check_now_ns", "ns", "lower"),
    ("pool.quiesce_ns_per_check", "ns", "lower"),
    ("pool.check_ns_per_check", "ns", "lower"),
    ("pool.checks", "count", "higher"),
    ("pool.dispatches", "count", "lower"),
    ("pool.checks_per_dispatch", "ratio", "higher"),
    ("pool.coalesced", "count", "lower"),
    ("pool.idle_frac", "ratio", "lower"),
    ("pool.waitfor_pass_ns", "ns", "lower"),
    ("pool.lockorder_pass_ns", "ns", "lower"),
    ("pool.waitfor_passes", "count", "higher"),
    ("pool.lockorder_edges", "count", "lower"),
    ("pool.recovery_actions", "count", "higher"),
    ("pathexpr.advance_ns", "ns", "lower"),
    ("interpose.pair_ns", "ns", "lower"),
    ("interpose.lookup_ns", "ns", "lower"),
    ("interpose.drain_ns_per_op", "ns", "lower"),
    ("interpose.events_lost", "count", "lower"),
    ("interpose.baseline_pair_ns", "ns", "lower"),
    ("loadgen.lag_p99_us", "us", "lower"),
    ("fleet.detect_p50_ms", "ms", "lower"),
    ("fleet.detect_p95_ms", "ms", "lower"),
    ("fleet.recover_p50_ms", "ms", "lower"),
    ("check.failed_ops_frac", "ratio", "lower"),
    ("check.missed_faults_frac", "ratio", "lower"),
    ("check.false_reports", "count", "lower"),
]

# Workload whose traced run supplies a per-layer metric when the traced
# workload itself does not enter that layer.
HOME = {
    "runtime.snapshot_ns": "fleet",
    "trace.overhead_cpu_frac": None,  # always the traced workload's own
    "interpose.pair_ns": "shim",
    "interpose.lookup_ns": "shim",
    "interpose.drain_ns_per_op": "shim",
    "interpose.events_lost": "shim",
    "interpose.baseline_pair_ns": "shim",
    "loadgen.lag_p99_us": "fleet",
    "fleet.detect_p50_ms": "fleet",
    "fleet.detect_p95_ms": "fleet",
    "fleet.recover_p50_ms": "fleet",
}
for _name, _, _ in PER_LAYER:
    if _name not in HOME:
        HOME[_name] = "fleet" if _name.startswith("pool.") else "hot-monitor"


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def spec():
    return {
        "command": ["python3", "robmonbench/run.py"],
        "paths": ["robmonbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def check_names():
    names = [n for n, *_ in END_TO_END] + [n for n, *_ in PER_LAYER]
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad or len(set(names)) != len(names):
        raise BenchError(f"bad or repeated metric names: {bad}")


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in a process group of its own: on a timeout the whole
    group (make and its compilers, say) is killed and reaped, not only
    `cmd`."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


# --- Build -------------------------------------------------------------------

def run_logged(cmd, log_path, timeout):
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    with open(log_path, "a") as out:
        out.write(f"$ {' '.join(cmd)}\n")
        out.flush()
        proc = run_group(cmd, timeout, stdout=out, stderr=subprocess.STDOUT,
                         cwd=ROOT, env=env)
    if proc.returncode != 0:
        with open(log_path) as f:
            tail = f.read()[-4000:]
        raise BenchError(f"command failed ({proc.returncode}): "
                         f"{' '.join(cmd)}\n{tail}")


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "robmon.hpp")):
        if not os.path.exists(os.path.join(ROOT, required)):
            raise BenchError(f"robmon sources not found: {required} is "
                             f"missing from {ROOT}")
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], build_log,
                   timeout=120)
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target",
                "robmonbench"], build_log, timeout=600)
    run_logged([binary("robmonbench_arith_test")], build_log, timeout=60)


def binary(name):
    return os.path.join(BUILD, name)


def preload_path():
    return os.path.join(BUILD, "robmon", "librobmon_preload.so")


# --- Host block ----------------------------------------------------------------

def host_block(seed):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    compiler = subprocess.run(
                        [path, "--version"], capture_output=True, text=True,
                        timeout=30).stdout.splitlines()[0]
                    break
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "compiler": compiler,
        "build_type": BUILD_TYPE,
        "commit": commit_id(),
        "seed": seed,
        "platform": platform.platform(),
    }


def cpu_times():
    """The machine-wide `cpu` line of /proc/stat (user, nice, system,
    idle, iowait, irq, softirq, steal, ...), or [] where there is none."""
    try:
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith("cpu "):
                    return [int(v) for v in line.split()[1:]]
    except OSError:
        pass
    return []


def commit_id():
    """The git commit when there is one; otherwise a digest of the sources
    the benchmark builds (a checkout without .git still compares like with
    like)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30)
        lines = proc.stdout.split()
        if (proc.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "robmonbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


# --- Running the programs --------------------------------------------------------

def workload_cmd(workload, seed, seconds, trace):
    if workload == "shim":
        cmd = [binary("robmonbench_shim_app")]
    else:
        cmd = [binary("robmonbench_native"), "--workload", workload]
    return cmd + ["--seed", str(seed), "--seconds", str(seconds),
                  "--trace", "1" if trace else "0", "--out-dir", OUT]


def shim_env(preload=True):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ROBMON_") and k != "LD_PRELOAD"}
    if preload:
        env["LD_PRELOAD"] = preload_path()
        env["ROBMON_SHARDS"] = "1"
        # Checked every 10 ms like fleet's monitors, not the shim's default
        # 100 ms: at ~5M events/s a 100 ms backlog makes peak memory track
        # throughput noise.
        env["ROBMON_CHECK_PERIOD_MS"] = "10"
    return env


SUMMARY_RE = re.compile(r"robmon: summary (.*)$", re.M)


_deadline = None


def start_clock():
    global _deadline
    _deadline = time.monotonic() + RUN_BUDGET_S


def run_program(workload, cmd, preload=True):
    """Runs one workload process; returns (result dict, spawn time ns)."""
    env = shim_env(preload) if workload == "shim" else None
    timeout = max(1.0, _deadline - time.monotonic())
    spawned = time.monotonic_ns()
    proc = run_group(cmd, timeout, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError(f"{' '.join(cmd)} printed no result")
    result = json.loads(lines[-1])
    if workload == "shim" and preload:
        match = SUMMARY_RE.search(proc.stderr)
        if match is None:
            raise BenchError("the shim printed no atexit summary:\n"
                             + proc.stderr[-4000:])
        result["shim_summary"] = {
            k: int(v) for k, v in
            (kv.split("=", 1) for kv in match.group(1).split())}
    return result, spawned


def shim_micro():
    """Call costs of the shim wrappers vs plain pthreads (single thread)."""
    cmd = [binary("robmonbench_shim_app"), "--micro"]
    shimmed, _ = run_program("shim", cmd, preload=True)
    plain, _ = run_program("shim", cmd, preload=False)
    return {
        "interpose.pair_ns": shimmed["pair_ns"],
        "interpose.baseline_pair_ns": plain["pair_ns"],
        "interpose.lookup_ns":
            shimmed["failed_trylock_ns"] - plain["failed_trylock_ns"],
    }, shimmed["correct"] and plain["correct"]


# --- Result assembly -------------------------------------------------------------

def checks_of(workload, result):
    """Output checks of one run: the program's own checks plus, for the
    shim, a clean atexit summary."""
    failures = [f for f in result.get("check_failures", "").split("; ") if f]
    if not result.get("correct", False) and not failures:
        failures.append(f"{workload}: checks failed")
    summary = result.get("shim_summary")
    if summary is not None and summary.get("faults", -1) != 0:
        failures.append(f"shim: atexit summary shows faults="
                        f"{summary.get('faults')}")
    return failures


def layer_metrics(workload, result):
    """Per-layer values one traced run measured itself."""
    out = {}
    for name, _, _ in PER_LAYER:
        key = name[len("fleet."):] if name.startswith("fleet.") else name
        if key in result and result[key] is not None:
            out[name] = result[key]
    summary = result.get("shim_summary")
    if summary is not None:
        out["interpose.events_lost"] = summary.get("events_lost", 0)
    attempted = max(1, result.get("attempted", 0))
    out["check.failed_ops_frac"] = result.get("failed_ops", 0) / attempted
    injected = result.get("injected_faults", 0)
    out["check.missed_faults_frac"] = (
        result.get("missed_faults", 0) / injected if injected else 0.0)
    out["check.false_reports"] = result.get("false_reports", 0)
    return out


def main_run(args):
    check_names()
    build()
    start_clock()
    seconds = args.seconds
    workload = args.workload
    trace = args.trace == 1
    before = cpu_times()
    if trace:
        result, _ = run_program(
            workload, workload_cmd(workload, args.seed, seconds, True))
        results = [result]
    else:
        results, setup_samples = [], []
        for k in range(PROCESSES):
            result, spawned = run_program(workload, workload_cmd(
                workload, args.seed * PROCESSES + k, seconds / PROCESSES,
                False))
            results.append(result)
            setup_samples.append((result["first_op_ns"] - spawned) / 1e9)
    after = cpu_times()
    failures = [f for r in results for f in checks_of(workload, r)]
    detail = {"host": host_block(args.seed), "workload": workload,
              "trace": int(trace), "seconds": seconds}
    elapsed = [b - a for a, b in zip(before, after)]
    if len(elapsed) > 7 and sum(elapsed) > 0:
        detail["host"]["steal_frac"] = elapsed[7] / sum(elapsed)

    def median_of(name):
        return statistics.median(r[name] for r in results)

    if not trace:
        # Set-up is a fixed cost that host noise only adds to: the lower
        # quartile over the processes leaves most of that noise out and is
        # steadier than the minimum.
        metrics = {"setup_s": statistics.quantiles(setup_samples, n=4)[0]}
        for name, *_ in END_TO_END[1:]:
            metrics[name] = median_of(name)
        detail["unbounded"] = {name: median_of(name) for name in REPORTED}
        detail["samples"] = {
            "processes": len(results),
            "pairs": sum(r["pairs"] for r in results),
            "ops": sum(r["ops"] for r in results),
            "ref_ops": sum(r["ref_ops"] for r in results),
            "op_latency": sum(r["op_latency.samples"] for r in results),
            "op_p99_us.beyond_min":
                min(r["op_p99_us.beyond"] for r in results),
        }
        detail["setup_s_samples"] = setup_samples
    else:
        metrics = layer_metrics(workload, result)
        micro, micro_ok = shim_micro()
        if not micro_ok:
            failures.append("shim micro: failed trylock never failed")
        for name, value in micro.items():
            metrics.setdefault(name, value)
        companions = {}
        for name, _, _ in PER_LAYER:
            home = HOME[name]
            if name in metrics or home is None or home == workload:
                continue
            if home not in companions:
                log(f"companion run: {home} (fills layers {workload} "
                    f"does not enter)")
                companion, _ = run_program(
                    home, workload_cmd(home, args.seed, COMPANION_SECONDS[home],
                                       True))
                failures += checks_of(home, companion)
                companions[home] = layer_metrics(home, companion)
            if name in companions[home]:
                metrics[name] = companions[home][name]
        detail["companions"] = sorted(companions)
        detail["samples"] = {
            k: v for k, v in result.items()
            if k.endswith((".samples", ".spans", ".beyond", "_min"))
            or k in ("cycles", "windows", "trace.spans")}
        missing = [n for n, *_ in PER_LAYER if n not in metrics]
        if missing:
            raise BenchError(f"per-layer metrics not measured: {missing}")

    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    detail["checks"] = failures
    detail["raw"] = results
    with open(os.path.join(OUT, f"result-{workload}-{args.seed}-"
                                f"{int(trace)}.json"), "w") as f:
        json.dump(detail, f, indent=1)
    print(json.dumps({k: v for k, v in detail.items() if k != "raw"}))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed_ops"]) for r in results),
        "metrics": {n: {"value": float(v), "unit": units[n]}
                    for n, v in metrics.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w for w, _ in WORKLOADS + UNBENCHMARKED])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root")
    args = parser.parse_args()
    try:
        if args.write_spec:
            check_names()
            with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
                json.dump(spec(), f, indent=2)
                f.write("\n")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds < 1:
            parser.error("--seconds must be at least 1")
        main_run(args)
        return 0
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log(f"robmonbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
