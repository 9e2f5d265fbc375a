"""Self-test of the benchmark and its traced run.

    python3 bench/selftest.py

Checks, printing one PASS/FAIL line each and exiting 1 on any failure:

  coverage    installing the tracer replaces every fflv module binding of
              every traced function (and every traced method on its class),
              and uninstalling puts back exactly the originals;
  accounting  on one traced pass of each workload, no span, hot leaf or
              layer has a negative self time, and per item the self times
              inside it plus its own self time (the benchmark's checks)
              account for the item's wall time as run_pass measures it,
              outside the tracer, to within TOLERANCE_S;
  fault       a planted fault, a lattice_points wrapper that drops one
              point, makes some items fail on every workload;
  clean       the same passes without the fault have no failing item;
  contract    BENCHMARK.json lists exactly the workloads and metrics that
              the benchmark runs and reports.
"""

from __future__ import annotations

import functools
import json
import sys

import run

# Time of an item that run_pass measures but the item's span does not cover:
# two clock reads and the tracer's bookkeeping, microseconds unless a
# garbage collection lands there.
TOLERANCE_S = 1e-3
SEED = 1           # draws verify-sweep's random posets and monomials


def _values_everywhere() -> list:
    """(holder, attribute, value) over every fflv module and class dict."""
    from spans import fflv_modules

    out = []
    for module in fflv_modules():
        for attr, value in vars(module).items():
            out.append((module, attr, value))
            if isinstance(value, type) and value.__module__.startswith("fflv"):
                out.extend((value, a, v) for a, v in vars(value).items())
    return out


def check_coverage() -> list[str]:
    from spans import Tracer, target_bindings

    found, missing = target_bindings()
    problems = [f"target not found: {name}" for name in missing]
    originals = {id(orig): name for name, _, orig, _ in found}
    tracer = Tracer()
    tracer.install()
    try:
        for holder, attr, value in _values_everywhere():
            if id(value) in originals:
                problems.append(f"unwrapped binding {getattr(holder, '__name__', holder)}."
                                f"{attr} of {originals[id(value)]}")
        wrappers = {id(w) for _, _, _, w in tracer.patched}
    finally:
        tracer.uninstall()
    for name, _, orig, owners in found:
        for owner, attr in owners:
            if vars(owner).get(attr) is not orig:
                problems.append(f"{name} not restored at {owner.__name__}.{attr}")
    for holder, attr, value in _values_everywhere():
        if id(value) in wrappers:
            problems.append(f"wrapper left at {getattr(holder, '__name__', holder)}.{attr}")
    return problems


def check_accounting(items) -> list[str]:
    from fflv import polytope
    from spans import Tracer

    clear_cache = polytope.lattice_points.cache_clear
    tracer = Tracer()
    tracer.install()
    try:
        done = run.run_pass(items, range(len(items)), clear_cache, tracer)
    finally:
        tracer.uninstall()
    problems = [f"item {label} failed: {found}" for label, found in done.problems]
    for row in tracer.span_rows():
        name, own, leaves = row[3], row[6], row[7] or {}
        if own < 0:
            problems.append(f"span {row[0]} {name}: self time {own:.9f} s")
        problems += [f"leaf {leaf} under {name}: {sec:.9f} s"
                     for leaf, (_, sec) in leaves.items() if sec < 0]
    problems += [f"layer {name}: self time {sec:.9f} s"
                 for name, (_, sec) in tracer.stats.items() if sec < 0]
    for i, label, inside, own in tracer.items:
        uncovered = done.item_times[i] - inside - own
        if inside < 0 or own < 0 or not 0 <= uncovered <= TOLERANCE_S:
            problems.append(f"{label}: measured {done.item_times[i]:.9f} s, self times "
                            f"inside {inside:.9f} s, own {own:.9f} s")
    if len(tracer.items) != len(items):
        problems.append(f"{len(tracer.items)} items traced of {len(items)}")
    return problems


def _drop_last_point(fn):
    @functools.wraps(fn)
    def faulty(*args, **kwargs):
        return fn(*args, **kwargs)[:-1]
    return faulty


def failing_items(items, planted: bool) -> int:
    from fflv import polytope
    from spans import target_bindings

    original = polytope.lattice_points
    owners = []
    if planted:
        found, _ = target_bindings()
        owners = next(o for name, _, _, o in found if name == "polytope.lattice_points")
        faulty = _drop_last_point(original)
        for owner, attr in owners:
            setattr(owner, attr, faulty)
    try:
        done = run.run_pass(items, range(len(items)), original.cache_clear)
    finally:
        for owner, attr in owners:
            setattr(owner, attr, original)
    return len(done.problems)


def check_contract() -> list[str]:
    from spans import per_layer_units

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads differ from run.WORKLOADS")
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", per_layer_units())):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"{key} in BENCHMARK.json differs from what run.py reports")
    return problems


def main() -> int:
    try:
        run.load_fflv()
    except run.BenchError as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 2
    import workloads

    results = [("coverage", check_coverage())]
    for name in run.WORKLOADS:
        items = workloads.build(name, SEED)
        results.append((f"accounting {name}", check_accounting(items)))
        clean = failing_items(items, planted=False)
        results.append((f"clean {name}", [f"{clean} failing items"] if clean else []))
        faulted = failing_items(items, planted=True)
        results.append((f"fault {name}", [] if faulted else ["planted fault not detected"]))
        print(f"{name}: planted fault failed {faulted} of {len(items)} items")
    results.append(("contract", check_contract()))
    ok = True
    for name, problems in results:
        print(f"{name}: {'PASS' if not problems else 'FAIL'}")
        for problem in problems[:10]:
            print(f"  {problem}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
