"""End-to-end acceptance checks for the package's headline guarantees.

Each test covers one numbered guarantee, prints a single PASS/FAIL line
(shown with ``pytest -s`` or in the captured output of a failing test),
and asserts the exact statement.  The sweeps are exhaustive over the
stated parameter ranges; nothing is sampled except the seeded random
posets, whose seed is fixed.
"""

import random
import time
from fractions import Fraction
from itertools import product

from fflv.characters import (
    QPolynomial,
    dim,
    interlace_set,
    qchar_branching,
    qchar_polytope,
    weyl_dim,
)
from fflv.cli import (
    abs_cases,
    first_failure,
    minkowski_cases,
    slice_cases,
    straightening_cases,
)
from fflv.marked_poset import abs_verify, n1_report
from fflv.polytope import ehrhart_counts, inequalities, lattice_points
from fflv.rootsys import RootLabel, partition_from_fundamental
from pbw_module import pbw_character
from randposets import random_marked_poset


def L(row, col, barred=False):
    return RootLabel(row, col, barred)


def report(num, name, ok, detail=""):
    line = f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return ok


# Rank-2 reference systems; bounds as (coefficient of m1, coefficient of m2).
EVEN_RANK2_ROWS = [
    ({L(1, 1)}, (1, 0)),
    ({L(2, 2, True)}, (0, 1)),
    ({L(1, 1), L(1, 2, True), L(1, 1, True)}, (1, 1)),
    ({L(1, 1), L(1, 2, True), L(2, 2, True)}, (1, 1)),
]
ODD_RANK2_ROWS = [
    ({L(1, 1)}, (1, 0)),
    ({L(2, 2)}, (0, 1)),
    ({L(2, 2), L(2, 2, True)}, (0, 1)),
    ({L(1, 1), L(1, 2), L(2, 2)}, (1, 1)),
    ({L(1, 1), L(1, 2), L(1, 2, True), L(1, 1, True)}, (1, 1)),
    ({L(1, 1), L(1, 2), L(1, 2, True), L(2, 2, True)}, (1, 1)),
    ({L(1, 1), L(1, 2), L(2, 2), L(2, 2, True)}, (1, 1)),
]


def test_acceptance_1_worked_inequality_systems():
    t0 = time.perf_counter()
    bad = []
    for family, expected in (("even", EVEN_RANK2_ROWS), ("odd", ODD_RANK2_ROWS)):
        for weight in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 3)):
            got = {
                (row.support, row.bound)
                for row in inequalities(family, 2, weight).rows
            }
            want = {
                (frozenset(sup), c1 * weight[0] + c2 * weight[1])
                for sup, (c1, c2) in expected
            }
            if got != want:
                bad.append((family, weight))
    elapsed = time.perf_counter() - t0
    ok = not bad
    report(1, "rank-2 inequality systems, 4 and 7 rows", ok,
           f"{elapsed:.3f}s")
    assert ok, f"mismatching systems: {bad}"


def test_acceptance_2_dimension_consistency():
    t0 = time.perf_counter()
    first = None
    checked = 0
    for n in (1, 2, 3):
        for weight in product(range(3), repeat=n):
            count = len(lattice_points("odd", n, weight))
            lam = partition_from_fundamental(weight)
            branched = sum(weyl_dim(n, mu) for mu in interlace_set(lam))
            checked += 1
            if count != branched and first is None:
                first = (n, weight, count, branched)
    # Beyond rank 3 the count comes from the DP, dim(method="polytope").
    counted = [
        (family, n, tuple(int(i == k - 1) for i in range(n)))
        for family in ("odd", "even")
        for n in (4, 5, 6)
        for k in range(n + 1)
    ]
    counted += [("odd", 4, weight) for weight in product(range(2), repeat=4)]
    for family, n, weight in counted:
        count = dim(family, n, weight)
        expected = dim(family, n, weight,
                       method="weyl" if family == "even" else "branching")
        checked += 1
        if count != expected and first is None:
            first = (family, n, weight, count, expected)
    spots = (
        dim("odd", 2, (1, 0)),
        dim("odd", 2, (0, 1)),
        dim("odd", 2, (1, 1)),
    )
    elapsed = time.perf_counter() - t0
    ok = first is None and spots == (5, 9, 35)
    report(2, "point count equals branching or Weyl dimension", ok,
           f"{checked} weights, spots {spots}, {elapsed:.1f}s")
    assert ok, f"first mismatch {first}, spots {spots}"


def pbw_terms(n, weight):
    """The PBW oracle's character, keyed like GradedCharacter.terms."""
    return {w: QPolynomial(g) for w, g in pbw_character(n, weight).items()}


def at_q_one(terms):
    return {w: p.at_one() for w, p in terms.items()}


def first_difference(a, b):
    w = min(w for w in set(a) | set(b) if a.get(w) != b.get(w))
    return w, a.get(w), b.get(w)


def test_acceptance_3_graded_character_equality():
    # The polytope character is checked as an exact q-map against the PBW
    # filtration of the odd module, built by linear algebra.  The branching
    # sum shifts each component's grading uniformly, which is a different
    # grading from rank 2 on, so it is compared exactly only at n = 1 and
    # weight by weight at q = 1 elsewhere.
    t0 = time.perf_counter()
    first = None
    checked = 0
    for n, mmax in ((1, 3), (2, 2), (3, 1)):
        for weight in product(range(mmax + 1), repeat=n):
            checked += 1
            a = qchar_polytope("odd", n, weight).terms
            oracle = pbw_terms(n, weight)
            size = sum(at_q_one(oracle).values())
            branched = dim("odd", n, weight, method="branching")
            if a != oracle:
                w, pa, po = first_difference(a, oracle)
                first = (f"n={n} weight={weight} at eps-weight {w}: "
                         f"polytope {pa!r} vs PBW oracle {po!r}")
            elif size != branched:
                first = (f"n={n} weight={weight}: PBW oracle dimension "
                         f"{size} vs branching dimension {branched}")
            if first:
                break
        if first:
            break
    for n in (1, 2, 3):
        if first:
            break
        for weight in product(range(3), repeat=n):
            checked += 1
            a = qchar_polytope("odd", n, weight).terms
            b = qchar_branching(n, weight).terms
            if n > 1:
                a, b = at_q_one(a), at_q_one(b)
            if a != b:
                w, pa, pb = first_difference(a, b)
                first = (f"n={n} weight={weight} at eps-weight {w}: "
                         f"polytope {pa!r} vs branching {pb!r}"
                         + (" at q = 1" if n > 1 else ""))
                break
    elapsed = time.perf_counter() - t0
    ok = first is None
    detail = f"{checked} weights, {elapsed:.1f}s"
    if first:
        detail += f"; first mismatch {first}"
    report(3, "polytope character equals the PBW-graded character", ok, detail)
    assert ok, detail


def test_acceptance_4_minkowski_additivity():
    t0 = time.perf_counter()
    first = None
    checked = 0
    for family in ("odd", "even"):
        for n, mmax in ((1, 2), (2, 2), (3, 1)):
            count, failure = first_failure(minkowski_cases(family, n, mmax))
            checked += count
            if failure is not None and first is None:
                first = (n, failure)
    elapsed = time.perf_counter() - t0
    ok = first is None
    report(4, "Minkowski additivity of lattice points", ok,
           f"{checked} pairs, {elapsed:.1f}s")
    assert ok, f"first failure {first}"


def test_acceptance_5_slice_construction():
    t0 = time.perf_counter()
    first = None
    checked = 0
    for n in (1, 2):
        count, failure = first_failure(slice_cases(n, 2))
        checked += count
        if failure is not None and first is None:
            first = (n, failure)
    elapsed = time.perf_counter() - t0
    ok = first is None
    report(5, "odd polytope is a slice of the next even one", ok,
           f"{checked} weights, {elapsed:.1f}s")
    assert ok, f"first failure {first}"


def test_acceptance_6_transfer_bijection():
    t0 = time.perf_counter()
    first = None
    checked = 0
    for family in ("odd", "even"):
        for n in (1, 2, 3):
            count, failure = first_failure(abs_cases(family, n, 2))
            checked += count
            if failure is not None and first is None:
                first = (n, failure)
    rng = random.Random(20260823)
    for k in range(100):
        checked += 1
        failure = abs_verify(random_marked_poset(rng))
        if failure is not None and first is None:
            first = ("random", k, failure)
    elapsed = time.perf_counter() - t0
    ok = first is None
    report(6, "order-to-chain transfer is a bijection", ok,
           f"{checked} posets, {elapsed:.1f}s")
    assert ok, f"first failure {first}"


def test_acceptance_7_straightening_leading_terms():
    # The check reads the weight only through its total, and path bounds
    # 0..2n cover every total of a weight in {0, 1, 2}^n.
    t0 = time.perf_counter()
    first = None
    checked = 0
    for n in (1, 2, 3):
        count, failure = first_failure(straightening_cases(n, 2))
        checked += count
        if failure is not None and first is None:
            first = (n, failure)
    elapsed = time.perf_counter() - t0
    ok = first is None
    report(7, "straightened monomials lead their expansions", ok,
           f"{checked} monomials, {elapsed:.1f}s")
    assert ok, f"first failure {first}"


def test_acceptance_8_rank_one_family_attachment():
    t0 = time.perf_counter()
    result = n1_report(4, 3)
    elapsed = time.perf_counter() - t0
    checked = sum(r["checked"] for r in result["results"])
    ok = bool(result["passing"])
    report(8, "an attachment reproduces the product formula", ok,
           f"passing: {', '.join(result['passing']) or 'none'}, "
           f"{checked} instances, {elapsed:.1f}s")
    assert ok, "no attachment candidate matches the product formula"
    assert result["passing"] == ["row1_end"]


def test_acceptance_9_closed_form_and_polynomiality():
    t0 = time.perf_counter()
    counts = ehrhart_counts("odd", 1, (1,), 10)
    closed = all(c == (t + 1) * (t + 2) // 2 for t, c in enumerate(counts))
    # quadratic fit on t = 0..2 must predict every later dilation exactly
    diffs = [
        Fraction(counts[0]),
        Fraction(counts[1] - counts[0]),
        Fraction(counts[2] - 2 * counts[1] + counts[0], 2),
    ]
    poly = all(
        diffs[0] + diffs[1] * t + diffs[2] * t * (t - 1) == c
        for t, c in enumerate(counts)
    )
    elapsed = time.perf_counter() - t0
    ok = closed and poly
    report(9, "rank-one counts follow the closed form", ok,
           f"t <= 10, {elapsed:.3f}s")
    assert ok, f"counts {counts}"
