"""The benchmark's three workloads, each a list of checked items.

An item calls the library on inputs fixed when the workload is built and
returns the list of its problems; an empty list means every oracle agreed.
Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.

In `verify-sweep` the seed draws the random marked posets and the sampled
violating monomials; in every workload it also fixes the item order of each
pass (see run.py), and with it which lattice-point cache entries survive.  Workloads are sized so that one pass takes
a few seconds on two shared cores; see README.md for what was cut and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import product
from math import comb
from typing import Callable, NamedTuple

from fflv import characters, cli, marked_poset, polytope, rootsys, straightening

import seeded


class Item(NamedTuple):
    label: str
    run: Callable  # run(record) -> list of problems; record(name, value) counts


def fundamental(n: int, k: int) -> tuple[int, ...]:
    """omega_k in fundamental coordinates; k = 0 gives the zero weight."""
    return tuple(int(i == k - 1) for i in range(n))


# -- rank-ladder ------------------------------------------------------------

# Every omega_k and the zero weight at ranks 1..6, then the zero weight and
# omega_1 at ranks 7 and 8, and the zero weight at rank 9.  A weight of rank
# 5 or less takes at most about 20 ms, and an item that short is slowed in
# proportion more by the host's millisecond-scale stalls; so each such
# rank's weights form one item, and the median item is not a few-ms one.
RANK_FULL = range(1, 7)
RANK_SMALL = (7, 8)
RANK_ZERO = (9,)
RANK_BATCHED = range(1, 6)


def _rank_item(family: str, n: int, weight) -> list[str]:
    points = polytope.lattice_points(family, n, weight)
    graded = characters.qdim(family, n, weight)
    method = "weyl" if family == "even" else "branching"
    expected = characters.dim(family, n, weight, method)
    problems = []
    if len(points) != expected:
        problems.append(f"{len(points)} points, {method} dimension {expected}")
    if len(set(points)) != len(points):
        problems.append("repeated points")
    if graded.at_one() != expected:
        problems.append(f"qdim at q=1 is {graded.at_one()}, expected {expected}")
    return problems


def _rank_batch(family: str, n: int, weights) -> list[str]:
    return [f"w={w}: {problem}" for w in weights for problem in _rank_item(family, n, w)]


def rank_ladder(rng: random.Random) -> list[Item]:
    """The ladder itself does not depend on the seed; pass orders do."""
    items = []
    for family in ("even", "odd"):
        for n in (*RANK_FULL, *RANK_SMALL, *RANK_ZERO):
            ks = range(n + 1) if n in RANK_FULL else (0, 1) if n in RANK_SMALL else (0,)
            weights = [fundamental(n, k) for k in ks]
            if n in RANK_BATCHED:
                items.append(Item(f"{family} n={n} all {len(weights)} weights",
                                  lambda rec, f=family, n=n, ws=weights: _rank_batch(f, n, ws)))
                continue
            items += [Item(f"{family} n={n} w={w}",
                           lambda rec, f=family, n=n, w=w: _rank_item(f, n, w))
                      for w in weights]
    return items


# -- weight-ladder ----------------------------------------------------------

RANK1_MAX = 40
RANK2_BOX = 5                              # weights in {0..5}^2
RANK3_BOX = ((0, 1, 2), (0, 1, 2), (0, 1))  # weights in this product
EHRHART = (((1, 0), 8), ((0, 1), 6), ((1, 1), 5), ((2, 1), 3))


def _char_item(n: int, weight) -> list[str]:
    poly = characters.qchar_polytope("odd", n, weight)
    branch = characters.qchar_branching(n, weight)
    count = characters.dim("odd", n, weight)
    expected = characters.dim("odd", n, weight, "branching")
    problems = []
    if count != expected:
        problems.append(f"{count} points, branching dimension {expected}")
    for name, char in (("polytope", poly), ("branching", branch)):
        if char.total_dim() != expected:
            problems.append(f"{name} character has dimension {char.total_dim()}")
    if n == 1:
        if poly != branch:
            problems.append("rank-1 characters differ as q-maps")
    else:
        at_one = [{w: p.at_one() for w, p in c.terms.items()} for c in (poly, branch)]
        if at_one[0] != at_one[1]:
            problems.append("characters differ at q=1")
    return problems


def _ehrhart_item(n: int, weight, t_max: int) -> list[str]:
    counts = polytope.ehrhart_counts("odd", n, weight, t_max)
    expected = tuple(
        characters.dim("odd", n, tuple(t * m for m in weight), "branching")
        for t in range(t_max + 1)
    )
    return [] if counts == expected else [f"counts {counts}, expected {expected}"]


def weight_ladder(rng: random.Random) -> list[Item]:
    """The ladder itself does not depend on the seed; pass orders do."""
    weights = [(m,) for m in range(RANK1_MAX + 1)]
    weights += list(product(range(RANK2_BOX + 1), repeat=2))
    weights += list(product(*RANK3_BOX))
    items = [
        Item(f"char n={len(w)} w={w}", lambda rec, w=w: _char_item(len(w), w))
        for w in weights
    ]
    items += [
        Item(f"ehrhart n=2 w={w} t<={t}", lambda rec, w=w, t=t: _ehrhart_item(2, w, t))
        for w, t in EHRHART
    ]
    return items


# -- verify-sweep -----------------------------------------------------------

# Documented failure of `fflv verify qchar --n 2 --max-coeff 1` (README,
# "Known discrepancy"); any other output of that call is a failure.
QCHAR_RANK2_COUNTEREXAMPLE = {
    "weight": [0, 1],
    "eps_weight": [0, 1, 1],
    "polytope": {"1": 1},
    "branching": {"2": 1},
}

# Seeded parts, in batches: one item verifies a batch, so that an item's
# time averages over many random inputs.  A single monomial's cost varies by
# about 60% with the drawn vector, so the monomials come in two large
# batches (path bounds 0..4 and 5..8, as acceptance 7 uses bounds up to 2n),
# each with the same number per bound; their time then hardly depends on
# the seed.
POSET_BATCHES = 10
POSETS_PER_BATCH = 10
MONOMIAL_RANK = 4
MONOMIAL_BATCHES = (range(0, 5), range(5, 2 * MONOMIAL_RANK + 1))
MONOMIALS_PER_TOTAL = 40


def _box(n: int, max_coeff: int) -> int:
    return (max_coeff + 1) ** n


def _straightening_instances(n: int, max_coeff: int) -> int:
    """Vectors with bound + 1 units on a path from (1,1) to a barred end."""
    paths = seeded.straightening_paths(rootsys.build_poset("odd", n))
    return sum(
        comb(len(p) + bound, bound + 1)
        for bound in range(n * max_coeff + 1)
        for p in paths
    )


def _verify_calls() -> list[tuple[list[str], int | None]]:
    """(argv after `verify`, expected instance count or None)."""
    calls = []
    for family, n, mc in (("odd", 1, 2), ("odd", 2, 2), ("even", 1, 2),
                          ("even", 2, 2), ("even", 3, 1)):
        w = _box(n, mc)
        calls.append((["minkowski", "--family", family, "--n", str(n),
                       "--max-coeff", str(mc)], w * (w + 1) // 2))
    for family, n, mc in (("odd", 1, 2), ("odd", 2, 2), ("odd", 3, 1),
                          ("even", 1, 2), ("even", 2, 2), ("even", 3, 1)):
        calls.append((["abs", "--family", family, "--n", str(n),
                       "--max-coeff", str(mc)], _box(n, mc)))
    for n in (1, 2):
        calls.append((["slice", "--n", str(n), "--max-coeff", "2"], _box(n, 2)))
    calls.append((["qchar", "--n", "1", "--max-coeff", "2"], _box(1, 2)))
    for n, mc in ((1, 2), (2, 2), (3, 1)):
        calls.append((["straightening", "--n", str(n), "--max-coeff", str(mc)],
                      _straightening_instances(n, mc)))
    calls.append((["n1-formula", "--max-k", "4", "--max-coeff", "3"], None))
    return calls


def _run_verify(argv: list[str], record) -> tuple[int, dict]:
    """`fflv verify <argv>` in-process: exit code and the JSON summary line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", *argv])
    summary = json.loads(out.getvalue().splitlines()[-1])
    record("cli.instances", summary["instances"])
    return code, summary


def _cli_item(argv: list[str], instances: int | None, record) -> list[str]:
    code, summary = _run_verify(argv, record)
    problems = []
    if code != 0 or summary["status"] != "pass" or summary["failures"] != 0:
        problems.append(f"exit {code}, summary {summary}")
    if summary["target"] != argv[0]:
        problems.append(f"summary for target {summary['target']!r}")
    if summary["instances"] < 1:
        problems.append("sweep checked nothing")
    if instances is not None and summary["instances"] != instances:
        problems.append(f"{summary['instances']} instances, expected {instances}")
    return problems


def _qchar_failure_item(record) -> list[str]:
    code, summary = _run_verify(["qchar", "--n", "2", "--max-coeff", "1"], record)
    expected = {
        "target": "qchar",
        "instances": 2,
        "failures": 1,
        "status": "fail",
        "counterexample": QCHAR_RANK2_COUNTEREXAMPLE,
    }
    if code != 1 or summary != expected:
        return [f"exit {code}, summary {summary}; documented: exit 1, {expected}"]
    return []


def _abs_item(posets) -> list[str]:
    failures = [marked_poset.abs_verify(poset) for poset in posets]
    return [f"abs_verify: {f}" for f in failures if f is not None]


def _straighten_item(cases) -> list[str]:
    problems = []
    for weight, vec, path in cases:
        engine = straightening.Straightener(MONOMIAL_RANK)
        failure = engine.verify(weight, vec, path)
        if failure is not None:
            problems.append(f"Straightener.verify {vec}: {failure}")
    return problems


def verify_sweep(rng: random.Random) -> list[Item]:
    items = [
        Item("verify " + " ".join(argv), lambda rec, a=argv, i=inst: _cli_item(a, i, rec))
        for argv, inst in _verify_calls()
    ]
    items.append(Item("verify qchar --n 2 --max-coeff 1", _qchar_failure_item))
    for k in range(POSET_BATCHES):
        posets = [seeded.random_marked_poset(rng) for _ in range(POSETS_PER_BATCH)]
        items.append(Item(f"abs_verify random posets batch {k}",
                          lambda rec, p=posets: _abs_item(p)))
    poset = rootsys.build_poset("odd", MONOMIAL_RANK)
    paths = seeded.straightening_paths(poset)
    for totals in MONOMIAL_BATCHES:
        cases = [seeded.violating_monomial(rng, poset, paths, total)
                 for total in totals for _ in range(MONOMIALS_PER_TOTAL)]
        items.append(Item(f"Straightener.verify rank {MONOMIAL_RANK} bounds "
                          f"{totals.start}..{totals.stop - 1}",
                          lambda rec, c=cases: _straighten_item(c)))
    return items


WORKLOADS = {
    "rank-ladder": rank_ladder,
    "weight-ladder": weight_ladder,
    "verify-sweep": verify_sweep,
}


def build(name: str, seed: int) -> list[Item]:
    return WORKLOADS[name](random.Random(seed))
