"""Inequality systems, lattice point enumeration, and polytope identities."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflv import polytope
from fflv.characters import dim
from fflv.polytope import (
    Counterexample,
    contains,
    counts_to_csv,
    ehrhart_counts,
    enumerate_points,
    inequalities,
    lattice_points,
    minkowski_verify,
    points_to_jsonlines,
    slice_verify,
    violated_paths,
)
from fflv.rootsys import RootLabel


def L(row, col, barred=False):
    return RootLabel(row, col, barred)


# Rank-2 systems with bounds written as (coefficient of m1, coefficient of m2).
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


def check_rank2_rows(family, expected):
    # The bounds are linear in (m1, m2); evaluating on a spanning set of
    # weights plus the origin pins the symbolic form.
    for weight in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 3)):
        system = inequalities(family, 2, weight)
        got = {(row.support, row.bound) for row in system.rows}
        want = {
            (frozenset(sup), c1 * weight[0] + c2 * weight[1])
            for sup, (c1, c2) in expected
        }
        assert got == want


def test_worked_system_rank2_even():
    check_rank2_rows("even", EVEN_RANK2_ROWS)
    assert len(inequalities("even", 2, (1, 1)).rows) == 4


def test_worked_system_rank2_odd():
    check_rank2_rows("odd", ODD_RANK2_ROWS)
    assert len(inequalities("odd", 2, (1, 1)).rows) == 7


def test_one_row_per_path():
    for family in ("odd", "even"):
        for n in (1, 2, 3):
            system = inequalities(family, n, (1,) * n)
            assert len(system.rows) == len(system.paths)
            for row, path in zip(system.rows, system.paths):
                assert row.support == frozenset(path.labels)


def test_enumeration_matches_box_filter():
    cases = [
        ("odd", 1, (2,)),
        ("even", 1, (2,)),
        ("odd", 2, (1, 1)),
        ("even", 2, (2, 1)),
    ]
    for family, n, weight in cases:
        system = inequalities(family, n, weight)
        box = sum(weight)
        expected = {
            p
            for p in product(range(box + 1), repeat=len(system.poset.roots))
            if contains(system, p)
        }
        got = lattice_points(family, n, weight)
        assert set(got) == expected
        assert list(got) == sorted(got)
        assert len(set(got)) == len(got)
        assert tuple(enumerate_points(system)) == got


def test_walk_matches_slack_search_sweep():
    # Both families: every weight in {0,1}^n for n <= 4 and in {0..2}^n for
    # n <= 2, compared as ordered tuples with the path-inequality search.
    for family in ("odd", "even"):
        for n in range(1, 5):
            top = 2 if n <= 2 else 1
            for weight in product(range(top + 1), repeat=n):
                system = inequalities(family, n, weight)
                assert lattice_points(family, n, weight) == enumerate_points(system)


@st.composite
def family_rank_weight(draw):
    family = draw(st.sampled_from(("odd", "even")))
    n = draw(st.integers(1, 3))
    top = {1: 6, 2: 3, 3: 1}[n]
    weight = tuple(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    return family, n, weight


@settings(deadline=None, database=None)
@given(family_rank_weight())
def test_walk_matches_oracles_property(case):
    family, n, weight = case
    system = inequalities(family, n, weight)
    points = lattice_points(family, n, weight)
    assert points == enumerate_points(system)
    assert all(contains(system, p) for p in points)


def test_lattice_points_high_rank():
    # 1260 roots: past the default recursion limit of a per-root search.
    n = 35
    zero = (0,) * n
    assert lattice_points("odd", n, zero) == ((0,) * (n * (n + 1)),)
    omega1 = (1,) + (0,) * (n - 1)
    points = lattice_points("odd", n, omega1)
    assert len(points) == 71 == dim("odd", n, omega1, method="branching")


def test_lattice_points_normalizes_weight():
    assert lattice_points("odd", 2, [1, 1]) == lattice_points("odd", 2, (1, 1))
    assert len(lattice_points("odd", 2, [1, 1])) == 35
    for family, n, weight in (
        ("neither", 2, (1, 1)),
        ("odd", 2, (1,)),
        ("odd", 2, [1, -1]),
    ):
        with pytest.raises(ValueError):
            lattice_points(family, n, weight)


def test_point_counts_frozen():
    table = {
        ("odd", 1, (1,)): 3,
        ("odd", 1, (2,)): 6,
        ("odd", 2, (1, 0)): 5,
        ("odd", 2, (0, 1)): 9,
        ("odd", 2, (1, 1)): 35,
        ("even", 2, (0, 1)): 5,
        ("even", 2, (1, 1)): 16,
    }
    for (family, n, weight), count in table.items():
        assert len(lattice_points(family, n, weight)) == count


def test_contains_and_violated_paths():
    system = inequalities("odd", 2, (1, 0))
    inside = (1, 0, 0, 0, 0, 0)
    outside = (1, 1, 0, 0, 0, 0)     # s11 + s12 + s22 = 2 > m1 + m2 = 1
    assert contains(system, inside)
    assert violated_paths(system, inside) == ()
    assert not contains(system, outside)
    bad = violated_paths(system, outside)
    assert bad
    assert all(
        sum(1 for lab in p.labels if lab in (L(1, 1), L(1, 2))) >= 2
        or p.labels == (L(1, 1),)
        for p in bad
    )
    assert not contains(system, (-1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        contains(system, (0, 0))


def test_minkowski_small_instances():
    assert minkowski_verify("odd", 1, (1,), (2,)) is None
    assert minkowski_verify("even", 2, (1, 0), (1, 1)) is None
    assert minkowski_verify("odd", 2, (1, 1), (2, 0)) is None


def tuple_sumset_verify(family, n, lam, mu):
    """Reference: the tuple sumset, one coordinate-wise sum per pair."""
    a = polytope.lattice_points(family, n, tuple(lam))
    b = polytope.lattice_points(family, n, tuple(mu))
    total = set(polytope.lattice_points(
        family, n, tuple(x + y for x, y in zip(lam, mu))))
    sumset = {tuple(x + y for x, y in zip(p, q)) for p in a for q in b}
    missing = total - sumset
    if missing:
        return Counterexample("missing", min(missing))
    extra = sumset - total
    if extra:
        return Counterexample("extra", min(extra))
    return None


def patch_points(monkeypatch, weight, edit):
    """Make polytope.lattice_points return edit(points) for one weight."""
    real = polytope.lattice_points

    def fake(family, n, w):
        points = real(family, n, w)
        return tuple(edit(list(points))) if tuple(w) == weight else points

    monkeypatch.setattr(polytope, "lattice_points", fake)


def test_minkowski_reports_extra_point(monkeypatch):
    # Every point of P(lam + mu) is a sum, so a dropped one comes back as extra.
    lam, mu = (1, 0), (0, 1)
    points = lattice_points("odd", 2, (1, 1))
    for dropped in points:
        with monkeypatch.context() as m:
            patch_points(m, (1, 1), lambda pts: [p for p in pts if p != dropped])
            want = Counterexample("extra", dropped)
            assert minkowski_verify("odd", 2, lam, mu) == want
            assert tuple_sumset_verify("odd", 2, lam, mu) == want
    # With several extra points, the lexicographically first is reported.
    with monkeypatch.context() as m:
        patch_points(m, (1, 1), lambda pts: pts[1:-1])
        want = Counterexample("extra", points[0])
        assert minkowski_verify("odd", 2, lam, mu) == want
        assert tuple_sumset_verify("odd", 2, lam, mu) == want


def test_minkowski_reports_missing_point(monkeypatch):
    # Without (1,0) in P(1), (3,0) of P(3) is no sum of P(1) and P(2).
    with monkeypatch.context() as m:
        patch_points(m, (1,), lambda pts: [p for p in pts if p != (1, 0)])
        want = Counterexample("missing", (3, 0))
        assert minkowski_verify("odd", 1, (1,), (2,)) == want
        assert tuple_sumset_verify("odd", 1, (1,), (2,)) == want
    # Every single drop from P(lam) agrees with the reference.
    lam, mu = (1, 1), (1, 0)
    kinds = set()
    for dropped in lattice_points("odd", 2, lam):
        with monkeypatch.context() as m:
            patch_points(m, lam, lambda pts: [p for p in pts if p != dropped])
            got = minkowski_verify("odd", 2, lam, mu)
            assert got == tuple_sumset_verify("odd", 2, lam, mu)
            kinds.add(got and got.kind)
    assert "missing" in kinds
    # With P(lam) cut to its zero point the sumset is P(mu), and 85 points
    # of P(lam + mu) go missing; the lexicographically first is reported.
    with monkeypatch.context() as m:
        patch_points(m, lam, lambda pts: pts[:1])
        want = Counterexample("missing", (0, 0, 0, 0, 0, 1))
        assert minkowski_verify("odd", 2, lam, mu) == want
        assert tuple_sumset_verify("odd", 2, lam, mu) == want


@pytest.mark.parametrize("bad", [(4, 0), (0, 7), (-1, 1)])
def test_minkowski_rejects_digits_outside_radix(monkeypatch, bad):
    # lam = (1,), mu = (2,): radix 4, so no digit may reach 4 or go negative.
    for weight in ((1,), (2,), (3,)):
        with monkeypatch.context() as m:
            patch_points(m, weight, lambda pts: pts + [bad])
            with pytest.raises(ArithmeticError):
                minkowski_verify("odd", 1, (1,), (2,))


def test_minkowski_rejects_digits_that_would_carry(monkeypatch):
    # Radix 4: a digit 3 in P(lam) with lam = (1,) plus a digit 1 in P(mu)
    # would carry, although 3 < 4.
    with monkeypatch.context() as m:
        patch_points(m, (1,), lambda pts: pts + [(3, 0)])
        with pytest.raises(ArithmeticError):
            minkowski_verify("odd", 1, (1,), (2,))


@st.composite
def minkowski_case(draw):
    family = draw(st.sampled_from(("odd", "even")))
    n = draw(st.integers(1, 3))
    top = {1: 3, 2: 2, 3: 1}[n]
    lam = tuple(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    if n < 3:
        mu = tuple(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    else:
        # Zero or one fundamental weight keeps the reference sumset small.
        k = draw(st.integers(0, n))
        mu = tuple(int(i == k - 1) for i in range(n))
    return family, n, lam, mu


@settings(deadline=None, database=None, max_examples=60)
@given(minkowski_case())
def test_minkowski_matches_tuple_sumset(case):
    family, n, lam, mu = case
    got = minkowski_verify(family, n, lam, mu)
    assert got is None
    assert got == tuple_sumset_verify(family, n, lam, mu)


def test_minkowski_validates_weights():
    assert minkowski_verify("odd", 2, [1, 1], [2, 0]) is None
    for lam, mu in (((1, -1), (0, 0)), ((0, 0), (-1, 2)), ((1,), (1, 1))):
        with pytest.raises(ValueError):
            minkowski_verify("odd", 2, lam, mu)
    with pytest.raises(ValueError):
        minkowski_verify("neither", 2, (1, 1), (1, 1))


def test_slice_small_instances():
    for lam in ((0,), (1,), (2,)):
        assert slice_verify(1, lam) is None
    assert slice_verify(2, (1, 1)) is None
    with pytest.raises(ValueError):
        slice_verify(2, (1,))


def test_ehrhart_rank1():
    assert ehrhart_counts("odd", 1, (1,), 3) == (1, 3, 6, 10)
    assert ehrhart_counts("even", 1, (1,), 4) == (1, 2, 3, 4, 5)


def newton_diffs(seq):
    out = []
    row = [Fraction(x) for x in seq]
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def newton_eval(diffs, t):
    total = Fraction(0)
    binom = Fraction(1)
    for k, d in enumerate(diffs):
        if k:
            binom *= Fraction(t - (k - 1), k)
        total += d * binom
    return total


def test_ehrhart_polynomial_prediction():
    # Fit the degree-d interpolating polynomial on t = 0..d and check that
    # it predicts the counts beyond the fitting window.
    cases = [("odd", 1, (1,), 2), ("odd", 1, (2,), 2), ("even", 2, (1, 1), 4)]
    for family, n, weight, degree in cases:
        counts = ehrhart_counts(family, n, weight, degree + 2)
        diffs = newton_diffs(counts[: degree + 1])
        for t, c in enumerate(counts):
            assert newton_eval(diffs, t) == c


def test_system_serialization():
    system = inequalities("even", 2, (1, 1))
    data = system.to_json()
    assert set(data) == {"family", "n", "weight", "rows"}
    assert data["weight"] == [1, 1]
    assert len(data["rows"]) == 4
    for row in data["rows"]:
        assert set(row) == {"support", "bound"}
        positions = [system.poset.index(
            L(lab["row"], int(lab["col"].rstrip("bar")), lab["col"].endswith("bar"))
        ) for lab in row["support"]]
        assert positions == sorted(positions)


def test_output_formats():
    pts = lattice_points("odd", 1, (1,))
    assert points_to_jsonlines(pts) == "[0, 0]\n[0, 1]\n[1, 0]"
    assert counts_to_csv((1, 3, 6)) == "t,count\n0,1\n1,3\n2,6"


def test_inequalities_rejects_bad_input():
    with pytest.raises(ValueError):
        inequalities("odd", 2, (1,))
    with pytest.raises(ValueError):
        inequalities("odd", 2, (1, -1))
    with pytest.raises(ValueError):
        inequalities("neither", 2, (1, 1))
