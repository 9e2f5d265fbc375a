"""Benchmark of the fflv package in this checkout's src/.

    python3 bench/run.py --workload rank-ladder --seed 1 --seconds 40 --trace 0

Builds the workload's items from the seed, checks that a fresh process
imports fflv from src/, then runs cold passes over all items (the
lattice-point cache is cleared before each pass, as every CLI call starts
with it empty) until the next pass would overrun `--seconds`.  Every item is
checked against its oracles in every pass.  After each untraced pass it
times fresh processes that import fflv and run a trivial CLI command
(`setup_s`).

Before every item it times `reference`, a fixed computation owned by the
benchmark.  An item's slowness is the reference time around it over
REFERENCE_S, and every item time, and so every pass time, is reported
divided by it: at the reference speed.  The host's speed drifts by 20-30%
over minutes, and this removes the drift that no statistic within one run
can (see README.md, "Host speed").  The measured times are printed beside
them.

With `--trace 0` it reports the end-to-end metrics, as medians over the
passes; with `--trace 1` it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones plus the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A full record (environment,
per-item times, problems and, when traced, the spans of the first traced
pass) goes to .bench_out/BENCH_<workload>_seed<seed>_trace<trace>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("rank-ladder", "weight-ladder", "verify-sweep")
SETUP_PER_PASS = 2      # cold starts timed after each untraced pass
REFERENCE_DIM, REFERENCE_SIZE = 5, 9    # simplex of `reference`: 2002 points
# The reference's time at which measured times are reported unchanged: its
# median on the two-core Intel Xeon host of README.md.  It fixes the scale
# of the reported times and nothing else.
REFERENCE_S = 3.3e-3
# Reference runs per pass, spread evenly over the items, so that every
# workload's slowness rests on about as many samples (about 0.3 s a pass).
REFERENCES_PER_PASS = 96
TAIL_BEYOND = 10   # samples that must lie beyond the reported tail percentile

# A fresh interpreter imports fflv and fflv.cli and runs a trivial command
# through the CLI parser; it prints where fflv came from, then the answer.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import fflv, fflv.cli; print(fflv.__file__); "
    "sys.exit(fflv.cli.main(['paths', '--family', 'odd', '--n', '1', '--count']))"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Layer metric -> the workload predicted to show its work, and where no
# change is predicted; the traced run prints the measured share next to it.
PREDICTIONS = (
    (("polytope.enumerate_points",), "rank-ladder (~85%)", "verify-sweep"),
    (("rootsys.dyck_paths", "polytope.inequalities"), "rank-ladder (~15%)",
     "weight-ladder"),
    (("rootsys.wt_deg", "characters.qchar_polytope", "characters.qchar_branching"),
     "weight-ladder (~70%)", "rank-ladder, verify-sweep"),
    (("polytope.minkowski_verify",), "verify-sweep", "both ladders"),
    (("marked_poset.transfer", "marked_poset.order_points", "marked_poset.chain_points"),
     "verify-sweep", "both ladders"),
    (("straightening.Straightener.apply_derivation",), "verify-sweep", "both ladders"),
    (("cli.main",), "verify-sweep", "both ladders"),
)


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


class Pass(NamedTuple):
    """One pass; the per-item lists are in item order, not pass order."""
    item_times: list      # wall time of each item
    item_cpu: list        # process CPU time of each item
    item_slowness: list   # the host's slowness around each item (see run_pass)
    problems: list        # (item label, [problem, ...])

    def _total(self, times: list, correct: bool) -> float:
        return sum(t / s if correct else t for t, s in zip(times, self.item_slowness))

    def wall(self, correct: bool = False) -> float:
        return self._total(self.item_times, correct)

    def cpu(self, correct: bool = False) -> float:
        return self._total(self.item_cpu, correct)

    def slowness(self) -> float:
        """The items' slowness, weighted by their times."""
        return self.wall() / self.wall(correct=True)


def reference() -> int:
    """Fixed pure-Python work shaped like the library's hot loops.

    A recursive slack search over the lattice points of a simplex, building
    a tuple per point and grading it in a dict; about 3 ms on the host
    described in README.md.  Its time measures the host's current speed.
    """
    grades: dict[int, int] = {}
    value = [0] * REFERENCE_DIM

    def walk(k: int, slack: int) -> None:
        if k == REFERENCE_DIM:
            point = tuple(value)
            grade = sum(i * v for i, v in enumerate(point))
            grades[grade] = grades.get(grade, 0) + 1
            return
        for v in range(slack + 1):
            value[k] = v
            walk(k + 1, slack - v)
        value[k] = 0

    walk(0, REFERENCE_SIZE)
    return len(grades)


def load_fflv() -> Path:
    """Import fflv from this checkout's src/ and refuse any other copy."""
    init = SRC / "fflv" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no fflv package at {init.parent}")
    sys.path.insert(0, str(SRC))
    import fflv

    resolved = Path(fflv.__file__).resolve()
    if resolved != init.resolve():
        raise BenchError(f"fflv resolves to {resolved}, not {init}")
    return resolved


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(fflv_path: Path) -> dict:
    return {
        "fflv": str(fflv_path),
        "commit": git_commit(),
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def cold_start(fflv_path: Path) -> float:
    """Wall time of a fresh process importing fflv and running the CLI."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    elapsed = perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2 or lines[1] != "2":
        raise BenchError(f"CLI cold start failed: {proc.stdout!r} {proc.stderr!r}")
    if Path(lines[0]).resolve() != fflv_path:
        raise BenchError(f"child process imported fflv from {lines[0]}")
    return elapsed


def pass_order(seed: int, k: int, n: int) -> list[int]:
    """Item order of pass k: a permutation fixed by the seed."""
    order = list(range(n))
    random.Random(f"{seed}/{k}").shuffle(order)
    return order


def run_pass(items, order, clear_cache, tracer=None) -> Pass:
    """One cold pass over the items in the given order.

    A block of timed `reference` runs comes before every item and after the
    last one; an item's slowness is the mean of the blocks on either side of
    it over REFERENCE_S, so 1 at the reference speed.  Item results come back
    in item order; a raised exception is a problem.
    """
    record = tracer.count if tracer else (lambda name, value: None)
    runs = max(1, round(REFERENCES_PER_PASS / len(items)))

    def reference_block() -> float:
        start = perf_counter()
        for _ in range(runs):
            reference()
        return (perf_counter() - start) / (runs * REFERENCE_S)

    clear_cache()
    gc.collect()
    n = len(items)
    problems, times, cpus, before = [], [0.0] * n, [0.0] * n, [0.0] * n
    for i in order:
        item = items[i]
        before[i] = reference_block()
        start = perf_counter()
        cpu0 = process_time()
        try:
            if tracer:
                found = tracer.run_item(i, item.label, lambda: item.run(record))
            else:
                found = item.run(record)
        except Exception:
            found = [traceback.format_exc(limit=-3).strip()]
        times[i] = perf_counter() - start
        cpus[i] = process_time() - cpu0
        if found:
            problems.append((item.label, found))
    after = [before[j] for j in order[1:]] + [reference_block()]
    slowness = [0.0] * n
    for i, later in zip(order, after):
        slowness[i] = (before[i] + later) / 2
    return Pass(times, cpus, slowness, problems)


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} items are too few for a tail percentile")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def pass_times(untraced: list[Pass], correct: bool) -> dict:
    """Medians over passes; item statistics over each item's median time.

    With `correct`, every item's time is divided by its slowness.  Pass
    orders differ, so a garbage collection or a cache miss that lands on an
    item in one pass drops out of that item's median.
    """
    per_item = [
        statistics.median(col)
        for col in zip(*(
            [t / s if correct else t for t, s in zip(p.item_times, p.item_slowness)]
            for p in untraced
        ))
    ]
    return {
        "wall_s": statistics.median(p.wall(correct) for p in untraced),
        "cpu_s": statistics.median(p.cpu(correct) for p in untraced),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": tail(per_item)[0] * 1e3,
    }


def end_to_end(untraced: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    """The reported metrics, and the measured times and slownesses behind them."""
    values = pass_times(untraced, correct=True)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["setup_s"] = statistics.median(setup)
    detail = {
        "measured": pass_times(untraced, correct=False),

        "cold_starts_s": setup,
        "item_tail_percentile": tail(untraced[0].item_times)[1],  # set by the item count
        "item_tail_beyond": TAIL_BEYOND,
        "items": len(untraced[0].item_times),
        "item_times_s": [p.item_times for p in untraced],
        "item_slowness": [p.item_slowness for p in untraced],
    }
    return {name: values[name] for name in END_TO_END_UNITS}, detail


def per_layer(traced: list[dict], untraced: list[Pass], traced_passes: list[Pass]) -> dict:
    """Medians over traced passes for self times; counts, calls and ratios
    from the first traced pass, whose item order depends on the seed alone."""
    from spans import per_layer_units

    values = {}
    for name in per_layer_units():
        if name == "trace.overhead_frac":
            continue
        if name.endswith(".self_s"):
            values[name] = statistics.median(m[name] for m in traced)
        else:
            values[name] = traced[0][name]
    values["trace.overhead_frac"] = (
        statistics.median(p.wall(correct=True) for p in traced_passes)
        / statistics.median(p.wall(correct=True) for p in untraced) - 1
    )
    return values


def layer_shares(values: dict, traced_wall: float) -> list[dict]:
    return [
        {
            "layers": list(names),
            "share": sum(values[f"{n}.self_s"] for n in names) / traced_wall,
            "works_on": works_on,
            "no_change_on": no_change_on,
        }
        for names, works_on, no_change_on in PREDICTIONS
    ]


class Run(NamedTuple):
    untraced: list        # Pass per untraced pass
    traced: list          # Pass per traced pass
    layer: list           # per-layer numbers per traced pass
    first_trace: dict     # spans, item accounting and cache use of traced pass 0
    setup: list           # cold start times


def measure(items, seed: int, seconds: float, trace: bool, fflv_path: Path) -> Run:
    """Untraced passes, each followed by cold starts when not tracing and by
    a traced pass when tracing, until time is up.

    Pass k runs the items in the k-th order of the seed, in both modes, so
    that garbage collections and lattice-point cache evictions fall on
    different items from pass to pass and the medians average them out.
    Cold starts are spread over the run, like the passes, so that both
    meet the same changes of host speed.
    """
    from fflv import polytope

    cache = polytope.lattice_points   # the cached function itself, never a wrapper
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    untraced, traced, layer, first_trace, setup = [], [], [], {}, []
    start = perf_counter()
    while True:
        order = pass_order(seed, len(untraced), len(items))
        untraced.append(run_pass(items, order, cache.cache_clear))
        if not tracer:
            setup += [cold_start(fflv_path) for _ in range(SETUP_PER_PASS)]
        else:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(items, order, cache.cache_clear, tracer))
            finally:
                tracer.uninstall()
            info = cache.cache_info()
            layer.append(tracer.pass_metrics(info.hits, info.hits + info.misses))
            if not first_trace:
                first_trace = {
                    "cache_hits": info.hits,
                    "cache_lookups": info.hits + info.misses,
                    "missing_targets": tracer.missing,
                    "item_accounting": tracer.items,
                    "span_fields": ["id", "parent", "item", "name", "start_s",
                                    "end_s", "self_s", "leaves"],
                    "spans": tracer.span_rows(),
                }
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(untraced) > seconds:
            return Run(untraced, traced, layer, first_trace, setup)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        fflv_path = load_fflv()
        import workloads

        env = environment(fflv_path)
        items = workloads.build(args.workload, args.seed)
        cold_start(fflv_path)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        print(f"bench: cannot import the benchmark or fflv: {exc}", file=sys.stderr)
        return 2

    try:
        run = measure(items, args.seed, args.seconds, bool(args.trace), fflv_path)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    problems = [pr for p in run.untraced + run.traced for pr in p.problems]
    failed = len(problems)
    attempted = len(items) * (len(run.untraced) + len(run.traced))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "passes": {"untraced_wall_s": [p.wall() for p in run.untraced],
                         "untraced_cpu_s": [p.cpu() for p in run.untraced],
                         "untraced_slowness": [p.slowness() for p in run.untraced],
                         "traced_wall_s": [p.wall() for p in run.traced],
                         "traced_slowness": [p.slowness() for p in run.traced]},
              "item_labels": [item.label for item in items],
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted,
              "problems": problems[:20]}

    print(f"fflv bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"items={len(items)} untraced passes={len(run.untraced)} "
          f"traced passes={len(run.traced)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'fail_frac':14s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} item runs failed)")
    for label, found in problems[:5]:
        print(f"FAIL {label}: {found[0]}")

    if args.trace:
        from spans import per_layer_units

        units = per_layer_units()
        values = per_layer(run.layer, run.untraced, run.traced)
        shares = layer_shares(values, statistics.median(p.wall() for p in run.traced))
        for name in units:
            print(f"{name:52s} {values[name]:.6g} {units[name]}")
        print(f"lattice_points cache: {run.first_trace['cache_hits']} hits of "
              f"{run.first_trace['cache_lookups']} lookups")
        for s in shares:
            print(f"share {' + '.join(s['layers'])}: {100 * s['share']:.1f}% of traced "
                  f"wall; predicted to work on {s['works_on']}, "
                  f"no change on {s['no_change_on']}")
        record.update({"per_layer": values, "layer_shares": shares,
                       "first_traced_pass": run.first_trace})
    else:
        values, detail = end_to_end(run.untraced, run.setup)
        units = END_TO_END_UNITS
        slowness = record["passes"]["untraced_slowness"]
        print(f"host slowness (reference time / {REFERENCE_S * 1e3:g} ms): passes "
              f"{min(slowness):.3f}..{max(slowness):.3f}; pass and item times below "
              f"are divided by it, item by item")
        for name, unit in units.items():
            measured = detail["measured"].get(name)
            print(f"{name:14s} {values[name]:.6g} {unit}"
                  + (f"  (measured {measured:.6g} {unit})" if measured else ""))
        print(f"item_tail_ms is the p{detail['item_tail_percentile']:.1f} of "
              f"{detail['items']} items ({TAIL_BEYOND} items beyond it)")
        record.update({"end_to_end": values, **detail})

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
