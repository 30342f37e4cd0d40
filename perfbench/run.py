#!/usr/bin/env python3
"""Spec-to-verdict benchmark for the `dcds` verifier.

Run from the repository root:

    python3 perfbench/run.py --workload det --seed 1 --seconds 10 --trace 0

The benchmark builds `dcds` from source (`cargo build --release`, into
$CARGO_TARGET_DIR, default `.bench_build`), writes the workload's specs
(generated from the seed by `specgen.py`) under `.bench_work/`, and then
runs `dcds check <spec> <formula>` on them in a closed loop: one client,
the next check starts when the previous verdict is in. Every verdict is
checked against the answer the spec family guarantees by construction.

Workloads, one spec family each, chosen to load different layers:

  det       deterministic services, weakly acyclic: det abstraction
            (Thm 4.3) + mu-calculus check; canonical keys and dedup
  rcycl     nondeterministic services, state-bounded: RCYCL (Thm 5.4) +
            mu-calculus check; commitment enumeration and many states
  symbolic  deterministic, run-unbounded: symbolic backward reachability;
            clause regression and subsumption, no state space at all

Set-up (timed as `setup_s`, the median of SETUP_REPS) is what a user does
before the loop: generate the specs, lint each (the static analyses), and
check each once cold, which also fixes the reference answer later checks
must repeat.

--trace 0 prints the end-to-end metrics: the wall time of the fastest
check of the run (see `best` for why not the median), the median peak RSS
of one check, and set-up time.
--trace 1 runs the same loop with `--profile --profile-alloc
--metrics-json` and prints per-layer figures over the checks: the least
self time of the CLI around the run span, of spec parsing, of the driver
(formula parsing, output), of the search (abstraction or symbolic
iterations) and of the verdict (mu-calculus fixpoint, or the symbolic
engine's own bookkeeping); and, as medians, allocated bytes and the
engines' own work counters.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave nothing in the checkout but .bench_*
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import specgen  # noqa: E402

WORKLOADS = {
    "det": (specgen.collision_pairs, []),
    "rcycl": (specgen.phased_rings, []),
    "symbolic": (specgen.bad_free_shuffle, ["--engine", "symbolic"]),
}
VARIANTS = 4  # specs per run; the loop cycles through them
SETUP_REPS = 7
JOB_TIMEOUT_S = 30
# Set-up, warm-up and measurement must end well inside the 180 s a run may
# take once the binary is built.
RUN_BUDGET_S = 150

PER_LAYER = [
    # (metric, unit); times are the least over the checks of the loop,
    # everything else the median.
    ("cli_us", "us"),
    ("parse_us", "us"),
    ("driver_us", "us"),
    ("search_us", "us"),
    ("verdict_us", "us"),
    ("alloc_kib", "KiB"),
    ("search_alloc_kib", "KiB"),
    ("states", "count"),
    ("edges", "count"),
    ("successors", "count"),
    ("canon_keys", "count"),
    ("canon_orders", "count"),
    ("query_plan_evals", "count"),
    ("query_index_probes", "count"),
    ("query_relation_scans", "count"),
    ("mc_query_state_evals", "count"),
    ("mc_visits", "count"),
    ("mc_fixpoint_iterations", "count"),
    ("mc_cache_misses", "count"),
    ("sym_regressions", "count"),
    ("sym_candidates", "count"),
    ("sym_kept", "count"),
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def build():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("src")):
        raise BenchError("run from the root of a dcds checkout (no Cargo.toml/src here)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # The workspace has no registry dependencies, so cargo's own caches can
    # live in the build directory too and the build writes nothing outside.
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_HOME=os.path.join(target, "cargo-home"))
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "dcds"],
        env=env,
        stdout=sys.stderr,
    )
    if proc.returncode != 0:
        raise BenchError(f"cargo build failed with exit code {proc.returncode}")
    return os.path.abspath(os.path.join(target, "release", "dcds"))


class Job:
    """One finished `dcds` process: exit code, output, wall time, peak RSS."""

    def __init__(self, argv, out_path, env, timeout_s):
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
            timer = threading.Timer(timeout_s, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - t0
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.maxrss_kib = usage.ru_maxrss
        with open(out_path, encoding="utf-8", errors="replace") as f:
            self.stdout = f.read()


class Spec:
    def __init__(self, path, formula, expect):
        self.path = path
        self.formula = formula
        self.expect = expect
        self.reference = None  # shape of the first answer; later ones must repeat it


class Bench:
    def __init__(self, dcds, workload, seed, work, deadline):
        self.dcds = dcds
        self.gen, self.engine_args = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("DCDS_")}
        self.problems = []
        self.setup_s = []

    def run(self, args, out_path):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        return Job([self.dcds] + args, out_path, self.env, min(JOB_TIMEOUT_S, remaining))

    def fail(self, spec, what):
        if len(self.problems) < 10:
            self.problems.append(f"{os.path.basename(spec.path)}: {what}")
        return False

    # -- set-up -----------------------------------------------------------

    def set_up(self):
        """Generate, lint and cold-check every spec into fresh files; returns
        the specs and records the time taken."""
        t0 = time.perf_counter()
        rep = len(self.setup_s)
        rng = random.Random(self.seed)
        specs = []
        for v in range(VARIANTS):
            text, formula, expect = self.gen(rng, v)
            path = os.path.join(self.work, f"r{rep}v{v}.dcds")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            spec = Spec(path, formula, expect)
            self.check_lint(spec, self.run(["lint", path, "--format", "json"], path + ".lint"))
            specs.append(spec)
        for spec in specs:
            self.check_answer(spec, self.run(self.check_args(spec), spec.path + ".out"))
        self.setup_s.append(time.perf_counter() - t0)
        return specs

    def check_lint(self, spec, job):
        if job.code != 0:
            return self.fail(spec, f"lint exit code {job.code}")
        try:
            codes = {json.loads(line)["code"] for line in job.stdout.splitlines() if line.strip()}
        except (ValueError, KeyError):
            return self.fail(spec, "lint output is not one JSON object per line")
        # What the static analyses must conclude by construction: the det
        # family is weakly acyclic (a run bound, DCDS062); the symbolic
        # family chases a deterministic service through a special
        # self-loop (not weakly acyclic, DCDS060).
        must = {"det": "DCDS062", "symbolic": "DCDS060"}.get(self.workload)
        if must and must not in codes:
            return self.fail(spec, f"lint did not report {must}: {sorted(codes)}")
        return True

    # -- one check --------------------------------------------------------

    def check_args(self, spec, extra=()):
        return (
            ["check", spec.path, spec.formula, "--threads", "1", "--format", "json"]
            + self.engine_args
            + list(extra)
        )

    def check_answer(self, spec, job):
        """Verdict, exit code and answer shape against the family's guarantee."""
        want = spec.expect["verdict"]
        if job.code != (0 if want else 1):
            return self.fail(spec, f"exit code {job.code}, expected {0 if want else 1}")
        try:
            answer = json.loads(job.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return self.fail(spec, "stdout is not one JSON object")
        if answer.get("verdict") is not want:
            return self.fail(spec, f"verdict {answer.get('verdict')}, expected {want}")
        if "abstraction" in answer:
            abstraction = answer["abstraction"]
            if abstraction.get("complete") is not True:
                return self.fail(spec, "abstraction truncated")
            shape = (abstraction.get("states"), abstraction.get("edges"))
            for key, got in zip(("states", "edges"), shape):
                if key in spec.expect and got != spec.expect[key]:
                    return self.fail(spec, f"{got} {key}, expected {spec.expect[key]}")
        else:
            shape = tuple(sorted(answer.get("sym_counters", {}).items()))
        if spec.reference is None:
            spec.reference = shape
        elif shape != spec.reference:
            return self.fail(spec, f"answer {shape} differs from the first {spec.reference}")
        return answer

    # -- the loop ---------------------------------------------------------

    def loop(self, seconds, traced):
        """Set up, then check the specs in turn for `seconds`. The other
        set-up repetitions are spread over the run, so that their median
        sees the same mix of busy and quiet host as the checks do."""
        specs = self.set_up()
        attempted = failed = 0
        samples = []
        start = time.monotonic()
        end = start + seconds
        while time.monotonic() < end:
            if time.monotonic() >= start + seconds * len(self.setup_s) / SETUP_REPS:
                self.set_up()
                continue
            spec = specs[attempted % len(specs)]
            out = os.path.join(self.work, f"job{attempted % len(specs)}")
            extra = []
            if traced:
                extra = ["--profile", out + ".folded", "--profile-alloc", "--metrics-json", out + ".metrics"]
            job = self.run(self.check_args(spec, extra), out + ".out")
            attempted += 1
            answer = self.check_answer(spec, job)
            if not answer:
                failed += 1
                continue
            samples.append(layer_sample(job, answer, out) if traced else job)
        return attempted, failed, samples


def read_folded(path):
    weights = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            stack, _, weight = line.rstrip("\n").rpartition(" ")
            if stack:
                weights[stack] = weights.get(stack, 0) + int(weight)
    return weights


def split_layers(weights):
    """Self weights by layer. Everything under `run` that is not parsing,
    the driver itself or the verdict is the search, so spans added inside
    the engines later still land in a layer."""
    root = sum(w for p, w in weights.items() if p == "run" or p.startswith("run;"))
    parse = weights.get("run;parse_spec", 0)
    driver = weights.get("run", 0)
    verdict = weights.get("run;symbolic.check", 0) + sum(
        w for p, w in weights.items() if p == "run;mc_eval" or p.startswith("run;mc_eval;")
    )
    return root, parse, driver, root - parse - driver - verdict, verdict


def layer_sample(job, answer, out):
    root, parse, driver, search, verdict = split_layers(read_folded(out + ".folded"))
    alloc = split_layers(read_folded(out + ".folded.alloc"))
    with open(out + ".metrics", encoding="utf-8") as f:
        counters = json.load(f).get("counters", {})
    abstraction = answer.get("abstraction", {})
    engine = answer.get("engine_counters", {})
    mc = answer.get("mc_counters", {})
    sym = answer.get("sym_counters", {})
    return {
        "cli_us": job.wall_s * 1e6 - root,
        "parse_us": parse,
        "driver_us": driver,
        "search_us": search,
        "verdict_us": verdict,
        "alloc_kib": alloc[0] / 1024,
        "search_alloc_kib": alloc[3] / 1024,
        "states": abstraction.get("states", 0),
        "edges": abstraction.get("edges", 0),
        "successors": engine.get("successors_generated", 0),
        "canon_keys": engine.get("canon_keys_computed", 0),
        "canon_orders": engine.get("canon_orders_enumerated", 0),
        "query_plan_evals": counters.get("query.plan_evals", 0),
        "query_index_probes": counters.get("query.index_probes", 0),
        "query_relation_scans": counters.get("query.relation_scans", 0),
        "mc_query_state_evals": mc.get("query_state_evals", 0),
        "mc_visits": mc.get("state_subformula_visits", 0),
        "mc_fixpoint_iterations": mc.get("fixpoint_iterations", 0),
        "mc_cache_misses": mc.get("cache_misses", 0),
        "sym_regressions": sym.get("regressions", 0),
        "sym_candidates": sym.get("candidates", 0),
        "sym_kept": sym.get("kept", 0),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def best(values):
    """Fastest sample (best-of-N, as `perf_report` does). On a 2-vCPU
    virtual machine whose cores other tenants share, a check takes up to
    1.6x longer for seconds at a time; across 10-30 s runs that moved the
    median by 15-30% and the 10th percentile by 15%, but the fastest check,
    the program's own cost, by 1-12%."""
    return min(values) if values else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    dcds = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.abspath(os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(work)
    bench = Bench(dcds, args.workload, args.seed, work, deadline)
    try:
        attempted, failed, samples = bench.loop(args.seconds, args.trace == 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: metric((best if unit == "us" else median)([s[name] for s in samples]), unit)
            for name, unit in PER_LAYER
        }
    else:
        metrics = {
            "verdict_best_ms": metric(best([job.wall_s * 1e3 for job in samples]), "ms"),
            "peak_rss_mib": metric(median([job.maxrss_kib / 1024 for job in samples]), "MiB"),
            "setup_s": metric(median(bench.setup_s), "s"),
        }
    print(
        json.dumps(
            {
                # Every wrong answer, in set-up or in the loop, is a problem.
                "correct": not bench.problems and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
