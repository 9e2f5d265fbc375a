"""Inequality systems, lattice point enumeration, and polytope identities."""

import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflv import cli, polytope, rootsys
from fflv.characters import dim, qchar_polytope, qdim
from fflv.marked_poset import fflv_marked_poset
from fflv.polytope import (
    Counterexample,
    contains,
    counts_to_csv,
    ehrhart_counts,
    enumerate_points,
    graded_count,
    inequalities,
    lattice_points,
    minkowski_verify,
    points_to_jsonlines,
    slack_search,
    slice_verify,
    violated_paths,
)
from fflv.rootsys import RootLabel, build_poset
from enumeration import flat_counts


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


def test_slack_search_with_a_negative_bound_is_empty():
    # Not even the zero point satisfies a negative bound; the odometer
    # starts from zero, so it must not run at all.
    assert slack_search(2, [(0,), (0, 1)], [1, -1]) == ()
    assert slack_search(2, [(0,), (0, 1)], [1, 0]) == ((0, 0),)
    assert slack_search(2, [(0,), (0, 1)], [1, 1]) == ((0, 0), (0, 1), (1, 0))


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


def wt_deg_counter(family, n, weight):
    """The graded count's oracle: wt_deg over the enumerated points, grouped
    by weight into ascending (degree, count) pairs."""
    grouped = {}
    for (wt, deg), count in flat_counts(family, n, weight).items():
        grouped.setdefault(wt, {})[deg] = count
    return {wt: tuple(sorted(degs.items())) for wt, degs in grouped.items()}


def test_graded_count_matches_enumeration_sweep():
    for family in ("odd", "even"):
        for n in (1, 2, 3):
            for weight in product(range(3), repeat=n):
                assert graded_count(family, n, weight) == wt_deg_counter(
                    family, n, weight)


@settings(deadline=None, database=None)
@given(family_rank_weight())
def test_graded_count_matches_enumeration_property(case):
    assert graded_count(*case) == wt_deg_counter(*case)


def test_graded_count_is_read_only():
    counts = graded_count("odd", 1, (1,))
    assert counts == {(0, 0): ((0, 1),), (1, -1): ((1, 1),), (2, 0): ((1, 1),)}
    with pytest.raises(TypeError):
        counts[(0, 0)] = ((0, 2),)
    with pytest.raises(TypeError):
        counts[(0, 0)][0] = (0, 2)
    with pytest.raises(TypeError):
        counts[(0, 0)][0][1] = 2
    # Inner (degree, count) pairs are read-only at every rank.
    for degs in graded_count("odd", 2, (1, 1)).values():
        assert type(degs) is tuple and all(type(pair) is tuple for pair in degs)


@pytest.mark.parametrize("bump", [(0, 2), (1, 3), (1, -2)])
def test_graded_count_rejects_steps_outside_radix(monkeypatch, bump):
    # lam = (0, 1): every chain coordinate is at most 1, so the radix only
    # covers steps in [0, 1]; a root whose range leaves that would carry.
    plan = polytope._walk_plan

    def widened(family, n, weight):
        poset, floor, preds, up = plan(family, n, weight)
        k, delta = bump
        up = list(up)
        up[k] += delta
        return poset, floor, preds, up

    monkeypatch.setattr(polytope, "_walk_plan", widened)
    with pytest.raises(ArithmeticError):
        polytope._graded_count.__wrapped__("odd", 2, (0, 1))


def test_cache_clear_empties_the_graded_count_cache():
    lattice_points("odd", 2, (1, 1))
    graded_count("odd", 2, (1, 1))
    assert polytope._graded_count.cache_info().currsize > 0
    lattice_points.cache_clear()
    assert polytope._graded_count.cache_info().currsize == 0
    assert lattice_points.cache_info().currsize == 0


def test_lattice_points_high_rank():
    # 1260 roots: past the default recursion limit of a per-root search.
    n = 35
    zero = (0,) * n
    assert lattice_points("odd", n, zero) == ((0,) * (n * (n + 1)),)
    omega1 = (1,) + (0,) * (n - 1)
    points = lattice_points("odd", n, omega1)
    assert len(points) == 71 == dim("odd", n, omega1, method="branching")


def reference_walk(floor, preds, up, chain):
    """The walk before forced positions were compiled out: an odometer over
    every position, whose reset recomputes each low from the plan as given.
    It needs a consistent plan; on an inconsistent one it never returns."""
    npos = len(up)
    x = [0] * npos
    s = [0] * npos
    emit = s if chain else x

    def reset(start):
        for k in range(start, npos):
            low = floor[k]
            for q in preds[k]:
                if x[q] > low:
                    low = x[q]
            x[k] = low
            s[k] = 0

    reset(0)
    out = []
    while True:
        out.append(tuple(emit))
        k = npos - 1
        while k >= 0 and x[k] == up[k]:
            k -= 1
        if k < 0:
            return out
        x[k] += 1
        s[k] += 1
        reset(k + 1)


def reference_plan(family, n, weight):
    """The walk plan read from the marked poset of the weight itself: each
    root's floor is its row's t_i marking, its bound the least marking
    weakly above it."""
    poset = build_poset(family, n)
    marked = fflv_marked_poset(family, n, weight)
    value = dict(marked.markings)
    ncoord = len(poset.roots)
    row_floor = {}
    cap = [None] * ncoord
    for a, b in marked.covers:
        if a in value:          # t_i below the first root of its row
            row_floor[b.row] = value[a]
        elif b in value:        # u_j or v_j above its root
            cap[poset.index(a)] = value[b]
    floor = [row_floor[root.label.row] for root in poset.roots]
    preds = [poset.predecessors(k) for k in range(ncoord)]
    up = [0] * ncoord
    for k in reversed(range(ncoord)):
        above = [up[q] for q in poset.successors(k)]
        if cap[k] is not None:
            above.append(cap[k])
        up[k] = min(above)
    return poset, floor, preds, up


def random_plan(rng):
    """A consistent walk plan: no bound is below a predecessor's bound, and
    no floor above its own bound.  A third of the floors sit at their
    bound, which forces the position."""
    floor, preds, up = [], [], []
    for k in range(rng.randint(1, 8)):
        ps = tuple(sorted(rng.sample(range(k), min(k, rng.randint(0, 3)))))
        top = max((up[q] for q in ps), default=0) + rng.choice((0, 0, 1, 2))
        floor.append(rng.choice((0, rng.randint(0, top), top)))
        preds.append(ps)
        up.append(top)
    return floor, preds, up


def long_chain_plan():
    """20 positions forced to 0, then a chain of free positions longer than
    the recursion limit, each in {0, 1} and reading the one before; from
    the position with floor 1 on, the chain is forced to 1."""
    free = sys.getrecursionlimit() + 50
    floor = [0] * (20 + free) + [1] * 30
    up = [0] * 20 + [1] * (free + 30)
    preds = [()] + [(k - 1,) for k in range(1, len(up))]
    return floor, preds, up


def forced_positions(points, up):
    """The positions that hold their bound in every labelling."""
    return [all(x[k] == u for x in points) for k, u in enumerate(up)]


def assert_walk_matches_reference(floor, preds, up, rng):
    labellings = reference_walk(floor, preds, up, False)
    chains = reference_walk(floor, preds, up, True)
    assert polytope.order_walk(floor, preds, up, False) == labellings
    assert polytope.order_walk(floor, preds, up, True) == chains
    assert polytope.frontier_count(floor, preds, up) == len(chains)
    steps = [rng.randint(0, 5) for _ in up]
    keys = Counter(sum(map(mul, s, steps)) for s in chains)
    assert polytope.frontier_count(floor, preds, up, steps) == keys
    # With place values as steps, a key is the chain point's mixed-radix
    # code, and each code is reached once.
    radix = max(u - f for f, u in zip(floor, up)) + 1
    places = [radix ** (len(up) - 1 - k) for k in range(len(up))]
    codes = polytope._encode(chains, radix, radix - 1)
    assert polytope.frontier_count(floor, preds, up, places) == dict.fromkeys(codes, 1)
    return labellings


def checked_elimination_order(floor, preds, up):
    """`frontier_count`'s order of the compiled plan, checked entry by entry:
    each compiled entry comes once, and each is the ready entry (all free
    predecessors placed) of largest position."""
    plan = polytope._compile(floor, preds, up)
    order = polytope._elimination_order(plan)
    assert sorted(order) == plan
    placed = set()
    for k, _, ps in order:
        ready = [j for j, _, qs in plan
                 if j not in placed and placed.issuperset(qs)]
        assert k == max(ready)
        placed.add(k)
    return order


def test_topological_order_takes_the_least_ready_index():
    assert polytope.topological_order([(), (), (0,), (1, 2)]) == (0, 1, 2, 3)
    assert polytope.topological_order([(2,), (), ()]) == (1, 2, 0)
    assert polytope.topological_order([]) == ()
    with pytest.raises(ValueError, match="contains a cycle"):
        polytope.topological_order([(), (2,), (1,)])


def drops_early_by_index(order):
    """Whether frontier bookkeeping in position indices would drop a value
    before its last reader in ``order``: some position visited before that
    reader has an index at least that of every reader of the value."""
    last_step, top_reader = {}, {}
    for t, (k, _, ps) in enumerate(order):
        for q in ps:
            last_step[q] = t
            top_reader[q] = max(top_reader.get(q, k), k)
    positions = [k for k, _, _ in order]
    return any(max(positions[:t]) >= top_reader[q] for q, t in last_step.items())


def test_compiled_walk_matches_reference_on_random_plans():
    rng = random.Random(1313)
    forced_runs = forced_feeds_free = reordered = early_drops = 0
    for _ in range(400):
        floor, preds, up = random_plan(rng)
        labellings = assert_walk_matches_reference(floor, preds, up, rng)
        forced = forced_positions(labellings, up)
        forced_runs += any(all(forced[k:k + 3]) for k in range(len(up) - 2))
        forced_feeds_free += any(
            forced[q] and not forced[k] for k, ps in enumerate(preds) for q in ps)
        order = checked_elimination_order(floor, preds, up)
        reordered += order != sorted(order)
        early_drops += drops_early_by_index(order)
    # The plans exercise what the compile step folds away, and a DP order
    # whose frontier must be kept in steps of the order, not by index.
    assert forced_runs >= 20 and forced_feeds_free >= 20
    assert reordered >= 20 and early_drops >= 20
    floor, preds, up = long_chain_plan()
    labellings = assert_walk_matches_reference(floor, preds, up, rng)
    assert len(labellings) == sys.getrecursionlimit() + 51
    assert forced_positions(labellings, up).count(False) > sys.getrecursionlimit()


def test_compiled_walk_matches_reference_on_fflv_plans():
    # Weights in {0,1,2}^n with |weight| <= 2: all of {0,1,2}^4 would list
    # 1.35 billion points at odd rank 4, these 21,000 at all ranks.
    rng = random.Random(1717)
    for family in ("odd", "even"):
        for n in range(1, 5):
            for weight in product(range(3), repeat=n):
                if sum(weight) > 2:
                    continue
                poset, floor, preds, up = polytope._walk_plan(family, n, weight)
                assert_walk_matches_reference(floor, preds, up, rng)
                # Column by column, each column from its first row down.
                order = [k for k, _, _ in checked_elimination_order(floor, preds, up)]
                assert order == sorted(order, key=lambda k: column_major(
                    poset.roots[k].label, n))


def column_major(label, n):
    """Columns 1, ..., n, then the barred columns n, ..., 1; rows within."""
    col = 2 * n + 1 - label.col if label.barred else label.col
    return col, label.row


def test_prefix_plan_matches_marking_plan():
    # All of {0,1,2}^n up to rank 5; from rank 6 to 12 the zero weight, the
    # all-ones weight and each fundamental weight.
    cases = [(n, weight) for n in range(1, 6)
             for weight in product(range(3), repeat=n)]
    for n in range(6, 13):
        cases += [(n, (0,) * n), (n, (1,) * n)]
        cases += [(n, tuple(int(i == k) for i in range(n))) for k in range(n)]
    for family in ("odd", "even"):
        for n, weight in cases:
            poset, floor, preds, up = polytope._walk_plan(family, n, weight)
            assert (poset, floor, list(preds), up) == reference_plan(
                family, n, weight)


def test_inconsistent_plans_raise():
    # The first position's least low is above its bound: no labelling.
    for count in (
        lambda *plan: polytope.order_walk(*plan, True),
        lambda *plan: polytope.order_walk(*plan, False),
        polytope.frontier_count,
    ):
        with pytest.raises(ValueError, match="position 0 has least low 2 above its bound 1"):
            count([2], [()], [1])
        # x[0] = 2 is a labelling of position 0 that leaves position 1 none.
        with pytest.raises(ValueError, match="position 1 has bound 1 below the bound 2"):
            count([0, 0], [(), (0,)], [2, 1])


def test_lattice_points_normalizes_weight():
    # graded_count validates the same way before its own cache, and
    # ehrhart_counts before it dilates: t = 0 would hide a negative weight.
    def ehrhart_at_zero(family, n, weight):
        return ehrhart_counts(family, n, weight, 0)

    assert len(lattice_points("odd", 2, [1, 1])) == 35
    for count in (lattice_points, graded_count, ehrhart_at_zero):
        assert count("odd", 2, [1, 1]) == count("odd", 2, (1, 1))
        for family, n, weight in (
            ("neither", 2, (1, 1)),
            ("odd", 2, (1,)),
            ("odd", 2, [1, -1]),
            ("odd", 1, (-1,)),
        ):
            with pytest.raises(ValueError):
                count(family, n, weight)


def test_public_callers_reject_non_integer_weights():
    # Read as a float, m_1 = 1.5 once gave six points with a coordinate 2.
    calls = [
        lambda w: lattice_points("odd", 1, w),
        lambda w: dim("odd", 1, w),
        lambda w: qdim("odd", 1, w),
        lambda w: graded_count("odd", 1, w),
        lambda w: qchar_polytope("odd", 1, w),
        lambda w: minkowski_verify("odd", 1, w, (1,)),
        lambda w: minkowski_verify("odd", 1, (1,), w),
        lambda w: slice_verify(1, w),
        lambda w: fflv_marked_poset("odd", 1, w),
    ]
    for call in calls:
        for weight in ((1.5,), (1.0,), ("1",)):
            with pytest.raises(TypeError):
                call(weight)


def test_non_integer_weight_entry_is_named():
    # check_weight reads the entries through rootsys.check_ints, so the
    # message names the entry and its position, before any range check.
    for weight, wrong in [((1, 1.5), "1.5 at position 1"),
                          ((0.5, -1), "0.5 at position 0"),
                          (("1", 1), "'1' at position 0")]:
        message = re.escape(f"fundamental coordinate {wrong} is not an integer")
        with pytest.raises(TypeError, match=message):
            rootsys.check_weight("odd", 2, weight)
        with pytest.raises(TypeError, match=message):
            lattice_points("odd", 2, weight)
    with pytest.raises(ValueError, match="fundamental coordinates must be nonnegative"):
        lattice_points("odd", 2, (1, -1))


def test_inequalities_checks_the_weight_once(monkeypatch):
    # path_bound checks its weight; inequalities sums the bounds of its
    # paths through the unchecked core instead.
    calls = []
    real = rootsys.check_weight

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rootsys, "check_weight", spy)
    monkeypatch.setattr(polytope, "check_weight", spy)
    system = inequalities("odd", 3, [1, 2, 0])
    assert calls == [("odd", 3, [1, 2, 0])]
    assert len(system.rows) == len(rootsys.dyck_paths(system.poset)) > 1
    for path, row in zip(system.paths, system.rows):
        assert row.bound == rootsys.path_bound(path, (1, 2, 0))
    assert len(calls) == 1 + len(system.paths)


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


@pytest.mark.parametrize("check", [contains, violated_paths])
def test_membership_refuses_a_point_that_is_not_integer(check):
    system = inequalities("odd", 1, (1,))
    for point, wrong in [((0.5, 0), "0.5 at position 0"),
                         ((0, Fraction(1)), "Fraction(1, 1) at position 1"),
                         ((-1, 0.0), "0.0 at position 1")]:
        with pytest.raises(TypeError, match=re.escape(f"coordinate {wrong} is not an integer")):
            check(system, point)
    with pytest.raises(ValueError, match="point length"):
        check(system, (0.5,))
    assert contains(system, (1, 0)) and not contains(system, (-1, 0))
    assert violated_paths(system, (-1, 0)) == () and violated_paths(system, (1, 1))


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


def patch_codes(monkeypatch, weight, edit):
    """Make polytope._point_codes return edit(codes) for one weight, with
    the codes passed in ascending order, which is lexicographic order."""
    real = polytope._point_codes

    def fake(family, n, w, radix):
        codes = real(family, n, w, radix)
        return set(edit(sorted(codes))) if w == weight else codes

    monkeypatch.setattr(polytope, "_point_codes", fake)


def test_minkowski_reports_extra_point(monkeypatch):
    # Every point of P(lam + mu) is a sum, so a dropped one comes back as
    # extra.  minkowski_verify reads P(lam + mu) as codes (radix 3 here),
    # the reference as points: each is edited the same way.
    lam, mu = (1, 0), (0, 1)
    points = lattice_points("odd", 2, (1, 1))
    for dropped in points:
        (code,) = polytope._encode([dropped], 3, 2)
        with monkeypatch.context() as m:
            patch_points(m, (1, 1), lambda pts: [p for p in pts if p != dropped])
            patch_codes(m, (1, 1), lambda codes: [c for c in codes if c != code])
            want = Counterexample("extra", dropped)
            assert minkowski_verify("odd", 2, lam, mu) == want
            assert tuple_sumset_verify("odd", 2, lam, mu) == want
    # With several extra points, the lexicographically first is reported.
    with monkeypatch.context() as m:
        patch_points(m, (1, 1), lambda pts: pts[1:-1])
        patch_codes(m, (1, 1), lambda codes: codes[1:-1])
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
    # Every single drop from P(lam) agrees with the reference, also with
    # lam = mu, where the sumset runs over unordered pairs.
    for lam, mu in (((1, 1), (1, 0)), ((1, 1), (1, 1))):
        kinds = set()
        for dropped in lattice_points("odd", 2, lam):
            with monkeypatch.context() as m:
                patch_points(m, lam, lambda pts: [p for p in pts if p != dropped])
                got = minkowski_verify("odd", 2, lam, mu)
                assert got == tuple_sumset_verify("odd", 2, lam, mu)
                kinds.add(got and got.kind)
        assert "missing" in kinds
    lam, mu = (1, 1), (1, 0)
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
    for weight in ((1,), (2,)):
        with monkeypatch.context() as m:
            patch_points(m, weight, lambda pts: pts + [bad])
            with pytest.raises(ArithmeticError):
                minkowski_verify("odd", 1, (1,), (2,))
    # P(3) comes from the DP, not the walk: widen its plan so that a bad
    # digit's position ranges up to that digit, or below zero.  The range
    # is checked on the plan before the DP runs.
    plan = polytope._walk_plan

    def widened(family, n, weight):
        poset, floor, preds, up = plan(family, n, weight)
        if weight == (3,):
            up = [u if 0 <= x <= 3 else f + x for f, u, x in zip(floor, up, bad)]
        return poset, floor, preds, up

    with monkeypatch.context() as m:
        m.setattr(polytope, "_walk_plan", widened)
        with pytest.raises(ArithmeticError, match="the radix would carry"):
            minkowski_verify("odd", 1, (1,), (2,))


def test_minkowski_reports_missing_zero_point_of_empty_side(monkeypatch):
    # An empty P(0), as a walk that drops every point gives, leaves the
    # sumset empty: the zero point of P(lam + mu) is the least missing one.
    # The point length comes from the plan, not from a point of P(0).
    with monkeypatch.context() as m:
        patch_points(m, (0, 0), lambda pts: [])
        want = Counterexample("missing", (0,) * 6)
        assert minkowski_verify("odd", 2, (0, 0), (1, 1)) == want
        assert tuple_sumset_verify("odd", 2, (0, 0), (1, 1)) == want


def test_minkowski_walks_lam_and_mu_only(monkeypatch):
    # P(lam + mu) comes from the DP: it is neither walked nor cached.
    calls = []
    real = polytope.lattice_points

    def spy(family, n, w):
        calls.append(tuple(w))
        return real(family, n, w)

    lattice_points.cache_clear()
    monkeypatch.setattr(polytope, "lattice_points", spy)
    assert minkowski_verify("odd", 2, (1, 0), (0, 1)) is None
    assert sorted(calls) == [(0, 1), (1, 0)]
    assert polytope._walk_points.cache_info().currsize == 2


ACCEPTANCE_4_BOXES = [(family, n, mc) for family in ("odd", "even")
                      for n, mc in ((1, 2), (2, 2), (3, 1))]


def box_pairs(n, max_coeff):
    return list(combinations_with_replacement(product(range(max_coeff + 1), repeat=n), 2))


def test_minkowski_sweep_matches_per_pair_checks():
    # One radix, shared encodings and one P(lam + mu) per sum give the
    # per-pair results, in pair order.  The tuple reference skips the 10 odd
    # rank-3 pairs with |lam|, |mu| >= 2: they alone take it about 5 s.
    for family, n, mc in ACCEPTANCE_4_BOXES:
        pairs = box_pairs(n, mc)
        swept = list(polytope.minkowski_sweep(family, n, pairs))
        assert len(swept) == len(pairs)
        assert swept == [minkowski_verify(family, n, lam, mu) for lam, mu in pairs]
        for (lam, mu), got in zip(pairs, swept):
            if family == "even" or n < 3 or min(sum(lam), sum(mu)) <= 1:
                assert got == tuple_sumset_verify(family, n, lam, mu)
    assert list(polytope.minkowski_sweep("odd", 2, [])) == []


def test_minkowski_sweep_reports_the_per_pair_first_failure(monkeypatch):
    # Dropping each point of P(1, 1) in turn: (1, 1) is a lam, a mu and a
    # sum of the box's pairs.  Dropped from the walk alone, the first
    # failure is a missing point; dropped from the DP too, an extra one.
    # Codes in ascending order are points in lexicographic order, whatever
    # the radix, so both drops remove the same point.
    pairs = box_pairs(2, 1)
    points = lattice_points("odd", 2, (1, 1))
    kinds = set()
    for k, from_dp in product(range(len(points)), (False, True)):
        with monkeypatch.context() as m:
            patch_points(m, (1, 1), lambda pts: pts[:k] + pts[k + 1:])
            if from_dp:
                patch_codes(m, (1, 1), lambda codes: codes[:k] + codes[k + 1:])
            swept = list(polytope.minkowski_sweep("odd", 2, pairs))
            assert swept == [minkowski_verify("odd", 2, *pair) for pair in pairs]
            if from_dp:
                assert swept == [tuple_sumset_verify("odd", 2, *pair) for pair in pairs]
            count, failure = cli.first_failure(cli.minkowski_cases("odd", 2, 1))
        first = next(i for i, got in enumerate(swept) if got is not None)
        lam, mu = pairs[first]
        assert count == first + 1
        assert failure == {"family": "odd", "lambda": list(lam), "mu": list(mu),
                           **swept[first].to_json()}
        kinds.add(swept[first].kind)
    assert kinds == {"missing", "extra"}


def test_minkowski_sweep_runs_the_dp_once_per_sum(monkeypatch, capsys):
    # 36 pairs, 27 distinct sums; a second call recomputes every sum, so no
    # state survives a call.  Each sum's chain range is proved once, in
    # `_point_codes`.
    calls, proofs = [], []
    real, real_check = polytope._point_codes, polytope._check_chain_range

    def spy(family, n, weight, radix):
        calls.append(weight)
        return real(family, n, weight, radix)

    def check_spy(floor, up, top):
        proofs.append(top)
        return real_check(floor, up, top)

    monkeypatch.setattr(polytope, "_point_codes", spy)
    monkeypatch.setattr(polytope, "_check_chain_range", check_spy)
    argv = ["verify", "minkowski", "--family", "even", "--n", "3", "--max-coeff", "1"]
    sums = {tuple(map(add, lam, mu)) for lam, mu in box_pairs(3, 1)}
    assert len(sums) == 27
    for rounds in (1, 2):
        assert cli.main(argv) == 0
        assert '"instances": 36' in capsys.readouterr().out
        assert len(calls) == 27 * rounds
        assert set(calls[27 * (rounds - 1):]) == sums
        assert len(proofs) == 27 * rounds


def test_minkowski_sweep_bounds_each_sum_by_its_own_size(monkeypatch):
    # The pair ((3,), (3,)) sets the sweep's radix to 7, but the chain
    # coordinates of P(1 + 2) must still be proved at most 3: a plan that
    # lets one reach 5 raises at the first pair.
    plan = polytope._walk_plan

    def widened(family, n, weight):
        poset, floor, preds, up = plan(family, n, weight)
        if weight == (3,):
            up = [floor[0] + 5] + up[1:]
        return poset, floor, preds, up

    sweep = polytope.minkowski_sweep("odd", 1, [((1,), (2,)), ((3,), (3,))])
    lattice_points.cache_clear()
    try:
        monkeypatch.setattr(polytope, "_walk_plan", widened)
        with pytest.raises(ArithmeticError, match="can exceed 3;"):
            next(sweep)
    finally:
        monkeypatch.undo()
        lattice_points.cache_clear()


def test_minkowski_sweep_validates_every_pair_first():
    sweep = polytope.minkowski_sweep("odd", 1, [((1,), (2,)), ((1,), (-1,))])
    with pytest.raises(ValueError):
        next(sweep)


def test_point_codes_match_encoded_walk():
    # Every lam + mu of the acceptance-4 boxes, and ranks 4-6 at the zero
    # and each fundamental weight.
    cases = [(n, nu) for n, top in ((1, 4), (2, 4), (3, 2))
             for nu in product(range(top + 1), repeat=n)]
    for n in range(4, 7):
        cases += [(n, tuple(int(i == k) for i in range(n))) for k in range(-1, n)]
    for family in ("odd", "even"):
        for n, nu in cases:
            radix = sum(nu) + 1
            codes = polytope._point_codes(family, n, nu, radix)
            walked = polytope._encode(lattice_points(family, n, nu), radix, radix - 1)
            assert codes == set(walked)
            assert set(codes.mapping.values()) == {1}


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
    assert slice_verify(2, [1, 1]) is None
    with pytest.raises(ValueError, match="weight length must equal the rank"):
        slice_verify(2, (1,))
    with pytest.raises(ValueError):
        slice_verify(1, (-1,))


def test_slice_reports_extra_point(monkeypatch):
    # slice_verify reads the odd points through lattice_points, the even
    # ones through the frontier DP: a point dropped from the odd polytope
    # is still in the even slice.
    points = lattice_points("odd", 2, (1, 1))
    for dropped in (points[0], points[17], points[-1]):
        with monkeypatch.context() as m:
            patch_points(m, (1, 1), lambda pts: [p for p in pts if p != dropped])
            assert slice_verify(2, (1, 1)) == Counterexample("extra", dropped)


def test_slice_reports_missing_point(monkeypatch):
    # (2, 0, 0, 0, 0, 0) breaks the path bound m_1 = 1, so no slice holds it.
    bad = (2, 0, 0, 0, 0, 0)
    with monkeypatch.context() as m:
        patch_points(m, (1, 1), lambda pts: pts + [bad])
        assert slice_verify(2, (1, 1)) == Counterexample("missing", bad)
    # With the zero point dropped too, the missing point is reported first.
    with monkeypatch.context() as m:
        patch_points(m, (1, 1), lambda pts: pts[1:] + [bad])
        assert slice_verify(2, (1, 1)) == Counterexample("missing", bad)


def test_slice_reports_point_beyond_radix(monkeypatch):
    # A correct walk gives the radix |lam| + 1 = 2; the planted (2, 0)
    # raises it to 3, so the point still has a code and is reported.
    with monkeypatch.context() as m:
        patch_points(m, (1,), lambda pts: pts + [(2, 0)])
        assert slice_verify(1, (1,)) == Counterexample("missing", (2, 0))


def test_slice_refuses_a_negative_walked_coordinate(monkeypatch):
    # A negative digit has no mixed-radix code, as in minkowski_sweep.
    with monkeypatch.context() as m:
        patch_points(m, (1,), lambda pts: pts + [(-1, 0)])
        with pytest.raises(ArithmeticError, match="outside"):
            slice_verify(1, (1,))


def test_slice_with_an_empty_walk_reports_the_first_slice_point(monkeypatch):
    # The radix falls back to |lam| + 1 when no coordinate is walked.
    for n, lam in ((1, (1,)), (2, (1, 1)), (2, (0, 0))):
        with monkeypatch.context() as m:
            patch_points(m, lam, lambda pts: [])
            first = min(reference_slice(n, lam))
            assert slice_verify(n, lam) == Counterexample("extra", first)


def reference_slice(n, lam):
    """The slice on the even side's path inequalities: the slack search over
    every Dyck path of even rank n + 1, kept where column n + 1 is 0."""
    system = inequalities("even", n + 1, tuple(lam) + (0,))
    cut = {k for k, lab in enumerate(system.poset.labels())
           if lab.barred and lab.col == n + 1}
    return {tuple(x for k, x in enumerate(p) if k not in cut)
            for p in enumerate_points(system) if not any(p[k] for k in cut)}


def test_slice_matches_reference_slice(monkeypatch):
    # The slice that slice_verify compares comes from the frontier DP; the
    # reference builds the even side's path inequalities instead.  The
    # sides are compared as codes, so the spy decodes the slice it sees.
    compared = []
    real = polytope._compare

    def spy(got, want, decode):
        compared.append(set(map(decode, got)))
        return real(got, want, decode)

    monkeypatch.setattr(polytope, "_compare", spy)
    cases = [(n, lam) for n in (1, 2) for lam in product(range(3), repeat=n)]
    cases += [(3, lam) for lam in product(range(2), repeat=3)]
    for n, lam in cases:
        want = reference_slice(n, lam)
        assert want == set(lattice_points("odd", n, lam))
        assert slice_verify(n, lam) is None
        assert compared.pop() == want


def test_slice_builds_no_dyck_path(monkeypatch):
    # The even side comes from the frontier DP, so a one-point slice at
    # rank 10 searches no path inequality of the even rank-11 poset.
    def forbidden(*args):
        raise AssertionError("slice_verify built path inequalities")

    for name in ("inequalities", "enumerate_points", "dyck_paths"):
        monkeypatch.setattr(polytope, name, forbidden)
    monkeypatch.setattr(rootsys, "dyck_paths", forbidden)
    lattice_points.cache_clear()
    assert slice_verify(10, (0,) * 10) is None
    assert slice_verify(8, (1,) + (0,) * 7) is None


def test_ehrhart_rank1():
    assert ehrhart_counts("odd", 1, (1,), 3) == (1, 3, 6, 10)
    assert ehrhart_counts("even", 1, (1,), 4) == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError, match="t_max must be nonnegative"):
        ehrhart_counts("odd", 1, (1,), -1)


def test_ehrhart_matches_enumeration():
    for family, n, weight, t_max in (("odd", 2, (1, 1), 3), ("even", 3, (0, 1, 1), 2)):
        dilates = [tuple(t * m for m in weight) for t in range(t_max + 1)]
        counts = ehrhart_counts(family, n, weight, t_max)
        assert counts == tuple(len(lattice_points(family, n, w)) for w in dilates)
        assert counts == tuple(
            sum(c for degs in graded_count(family, n, w).values() for _, c in degs)
            for w in dilates)


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
