"""Inequality systems and exact lattice-point enumeration for FFLV polytopes.

One inequality per symplectic Dyck path: the coordinates along the path sum
to at most the path bound.  All arithmetic is exact integer arithmetic.

`lattice_points` enumerates through the marked order polytope of the root
poset (`marked_poset.fflv_marked_poset`): it walks the roots in canonical
row-major order, a linear extension, giving each root an order value
between the largest value below it and the least marking above it, and
emits the chain coordinates value - (largest value below), which is the
transfer map onto the polytope.  Every such value extends to a full point,
so the walk never backtracks, and points come out in lexicographic order.
It builds no Dyck path.  `enumerate_points` is the independent oracle:
`slack_search` runs an odometer over the path inequalities, each row a
tuple of coordinates, and raises a coordinate only while every row through
it has slack left.

Each root's floor and bound are prefix sums m_1 + ... + m_i of the weight
whose indices are read off its label (i, j): floor index i - 1, bound index
j, or n if barred.  So one plan of prefix indices per (family, n) turns a
weight into its walk plan with two gathers.  `order_walk` and
`frontier_count` first compile the plan: a root whose least possible low
equals its bound is forced, takes that bound in every point (chain
coordinate 0), and is folded into the floors of the roots that read it, so
neither runs over it.

`frontier_count` is the one counting core: a frontier (transfer-matrix) DP
over the free positions of an `order_walk`, whose states are the values
that positions still to be visited read.  It visits them in its own
elimination order, not in the walk's: on FFLV plans column by column, so a
state holds about one value per row instead of a whole row.  It counts
plain labellings with one integer per state, or graded ones with a map of
packed keys per state.
`_graded_count` runs it graded over the walk of `lattice_points` and caches
the {packed key: count} map undecoded.  Characters read it through
`add_graded_terms`, `point_count` sums it, and `graded_count` decodes it
on each call; `lattice_points` is their oracle, and Ehrhart counts stay on
the walk.  `plain_count` and `marked_poset.order_count` run the DP plain.

`minkowski_sweep` checks P(lam) + P(mu) = P(lam + mu) over a list of
pairs on integer codes: each point is read as a mixed-radix number whose
radix, one for the sweep, exceeds every coordinate of every P(lam + mu),
so a sum of points is one integer addition and the sumset is a set of
ints.  P(lam) and P(mu) come from the walk; P(lam + mu) comes from
`frontier_count` with place values as steps, whose keys are the codes
themselves, so the two sides are independent engines.  The bound on the
coordinates of P(lam + mu) is proved on its plan before the DP runs.  A
sweep encodes each weight once and runs the DP once per distinct sum,
and keeps none of it past the call; `minkowski_verify` is the sweep over
one pair.
`slice_verify` pairs the same two engines, the walk for the odd points and
DP codes for the even slice, so neither side builds a Dyck path, and it
too compares codes.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Mapping, Set
from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations_with_replacement, starmap
from operator import add, index as as_int
from types import MappingProxyType

from .rootsys import (
    Counterexample,
    DyckPath,
    LatticePoint,
    RootPoset,
    Weight,
    _Frozen,
    build_poset,
    check_weight,
    dyck_paths,
    path_bound,
)


class IneqRow(namedtuple("IneqRow", "support bound")):
    """One path inequality: the sum over the support (a frozenset of root
    labels) is at most bound."""

    __slots__ = ()


class InequalitySystem(_Frozen):
    """FFLV defining inequalities for one dominant weight, one row per path.

    Its value is (family, n, weight, rows); the paths and the poset it was
    built from are not compared or printed.
    """

    # _row_support_idx: per row, its support as ascending coordinates
    # (root indices).
    __slots__ = ("family", "n", "weight", "rows", "paths", "poset", "_row_support_idx")
    _compared = ("family", "n", "weight", "rows")

    def __init__(self, family: str, n: int, weight: tuple[int, ...],
                 rows: tuple[IneqRow, ...], paths: tuple[DyckPath, ...],
                 poset: RootPoset) -> None:
        support_idx = tuple(tuple(sorted(map(poset.index, row.support))) for row in rows)
        super().__init__(family, n, weight, rows, paths, poset,
                         _row_support_idx=support_idx)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "weight": list(self.weight),
            "rows": [
                {
                    "support": [self.poset.roots[k].label.to_json() for k in idxs],
                    "bound": row.bound,
                }
                for idxs, row in zip(self._row_support_idx, self.rows)
            ],
        }


def inequalities(family: str, n: int, weight: tuple[int, ...]) -> InequalitySystem:
    """Build the inequality system for lambda = sum m_i omega_i."""
    weight = check_weight(family, n, weight)
    poset = build_poset(family, n)
    paths = dyck_paths(poset)
    rows = tuple(
        IneqRow(frozenset(p.labels), path_bound(p, weight)) for p in paths
    )
    return InequalitySystem(family, n, weight, rows, paths, poset)


def contains(system: InequalitySystem, s: LatticePoint) -> bool:
    """Exact membership test for a nonnegative integer point; an entry
    that is not an integer raises TypeError, a negative one gives False."""
    return not violated_paths(system, s) and all(x >= 0 for x in s)


def violated_paths(system: InequalitySystem, s: LatticePoint) -> tuple[DyckPath, ...]:
    """Paths whose inequality s violates, in canonical path order; raises for
    a wrong length, then for the first entry that is not an integer."""
    if len(s) != len(system.poset.roots):
        raise ValueError("point length must match the number of roots")
    for k, x in enumerate(s):
        try:
            as_int(x)
        except TypeError:
            raise TypeError(f"coordinate {x!r} at position {k} is not an integer") from None
    out = []
    for path, idxs, row in zip(system.paths, system._row_support_idx, system.rows):
        if sum(s[k] for k in idxs) > row.bound:
            out.append(path)
    return tuple(out)


def slack_search(ncoord: int, supports, bounds) -> tuple[LatticePoint, ...]:
    """Points in N^ncoord whose sum over each row r is at most bounds[r].

    ``supports[r]`` holds the coordinates of row r; every coordinate must
    lie on some row.  Points come out in lexicographic order: like
    `order_walk`, an odometer raises the last coordinate that every row
    through it still has slack for and zeroes the later ones, without
    recursing per coordinate.
    """
    by_coord = [[] for _ in range(ncoord)]
    for r, support in enumerate(supports):
        for k in support:
            by_coord[k].append(r)
    # A negative bound admits not even the zero point; otherwise zero is the first.
    if any(min(bounds[r] for r in rows) < 0 for rows in by_coord):
        return ()
    slack = list(bounds)
    value = [0] * ncoord
    out: list[LatticePoint] = []
    while True:
        out.append(tuple(value))
        k = ncoord - 1
        while k >= 0:
            rows = by_coord[k]
            if all(map(slack.__getitem__, rows)):
                break
            v = value[k]
            if v:
                value[k] = 0
                for r in rows:
                    slack[r] += v
            k -= 1
        if k < 0:
            return tuple(out)
        value[k] += 1
        for r in rows:
            slack[r] -= 1


def enumerate_points(system: InequalitySystem) -> tuple[LatticePoint, ...]:
    """All lattice points, in lexicographic order of the canonical coordinates."""
    return slack_search(len(system.poset.roots), system._row_support_idx,
                        [row.bound for row in system.rows])


def topological_order(preds) -> tuple[int, ...]:
    """Kahn's sort of range(len(preds)), preds[i] holding the indices that
    come before i: the least ready index goes next, so the order is the
    identity wherever that is a linear extension.  A cycle raises ValueError.
    """
    waiting = [len(ps) for ps in preds]
    readers = [[] for _ in preds]
    for i, ps in enumerate(preds):
        for q in ps:
            readers[q].append(i)
    ready = [i for i, w in enumerate(waiting) if not w]     # ascending: a heap
    order = []
    while ready:
        order.append(heappop(ready))
        for r in readers[order[-1]]:
            waiting[r] -= 1
            if not waiting[r]:
                heappush(ready, r)
    if len(order) != len(preds):
        raise ValueError("cover relation contains a cycle")
    return tuple(order)


def _compile(floor, preds, up):
    """The free positions of a walk plan, as (position, folded floor, free preds).

    A position's least low is the largest of its floor and its predecessors'
    least lows, the low it takes when every earlier position sits at its own.
    A position whose least low equals its bound is forced: every labelling
    gives it x = bound, and chain coordinate 0.  Its value is folded into
    the floors of the positions that read it, and the walk and the count
    skip it.  Folding only raises floors, to values every labelling reaches
    anyway, so the labellings stay the same.

    Raises ValueError at the first position whose least low exceeds its
    bound, or that reads a predecessor with a larger bound: some low would
    then exceed its bound, and no walk over the plan is well defined.
    """
    least = [0] * len(up)
    plan = []
    for k, (f, ps, u) in enumerate(zip(floor, preds, up)):
        lo = f
        free = []
        for q in ps:
            if up[q] > u:
                raise ValueError(
                    f"walk position {k} has bound {u} below the bound "
                    f"{up[q]} of its predecessor {q}"
                )
            if least[q] > lo:
                lo = least[q]
            if least[q] == up[q]:
                if up[q] > f:
                    f = up[q]
            else:
                free.append(q)
        if lo > u:
            raise ValueError(
                f"walk position {k} has least low {lo} above its bound {u}"
            )
        least[k] = lo
        if lo < u:
            plan.append((k, f, tuple(free)))
    return plan


def order_walk(floor, preds, up, chain: bool) -> list[tuple[int, ...]]:
    """Every integer labelling x with low(k) <= x[k] <= up[k], in lexicographic order.

    low(k) is the largest of floor[k] and x[q] for q in preds[k], which lie
    before k.  The plan is compiled first (`_compile`): a forced position
    holds its bound in every labelling, and an inconsistent plan raises
    ValueError.  An odometer over the free positions advances the last one
    below its bound and resets the later ones to their lows, in a loop over
    the compiled plan; a stack of the free positions below their bounds
    names the next one to advance without a scan.  It does not recurse,
    since there can be more positions than the recursion limit.  With
    ``chain`` it returns the transfer images x[k] - low(k) instead of the
    labellings.
    """
    plan = [(i, k, f, ps, up[k])
            for i, (k, f, ps) in enumerate(_compile(floor, preds, up))]
    x = list(up)            # forced positions keep their bound
    s = [0] * len(up)       # and chain coordinate 0
    emit = s if chain else x
    below = []              # plan indices of free positions below their bound
    out = []
    j = 0                   # the first plan entry to reset
    while True:
        for i, k, low, ps, top in plan[j:]:
            for q in ps:
                if x[q] > low:
                    low = x[q]
            x[k] = low
            s[k] = 0
            if low < top:
                below.append(i)
        out.append(tuple(emit))
        if not below:
            return out
        j = below.pop()
        _, k, _, _, top = plan[j]
        x[k] += 1
        s[k] += 1
        if x[k] < top:
            below.append(j)
        j += 1


def _elimination_order(plan):
    """The entries of a compiled plan in the order `frontier_count` visits them.

    Of the entries whose free predecessors are all placed, the one of
    largest position goes next: `topological_order` over the plan numbered
    from its last entry back.  An FFLV root reads the root above it in
    its column and the one before it in its row, so on FFLV plans this
    visits the roots column by column, each column from its first row
    down: a state holds about one value per row, the column last visited,
    where the walk's row-major order holds a whole row.
    """
    backwards = plan[::-1]
    entry = {k: j for j, (k, _, _) in enumerate(backwards)}
    order = topological_order([[entry[q] for q in ps] for _, _, ps in backwards])
    return [backwards[j] for j in order]


def frontier_count(floor, preds, up, steps=None):
    """Count the labellings of `order_walk` without listing them.

    A frontier (transfer-matrix) DP over the free positions of the compiled
    plan (`_compile`), visited in `_elimination_order`: a state holds the
    values of the visited free positions that positions still to be
    visited read as predecessors.  No labelling's count or key depends on
    that order, so the result does not either, except for the order in
    which the returned map iterates.  A forced position has one
    value and chain coordinate 0, so it adds neither a factor nor a state.
    Without ``steps`` each state carries one integer, the number of partial
    labellings that reach it, and the total comes back as an int; a
    position that no position still to be visited reads adds
    count * (up - low + 1) without a state per value.  With ``steps`` each
    state carries a map from packed keys to counts, and the map
    {key: count} over all labellings comes back, where a labelling's key
    is the sum of (x[k] - low(k)) * steps[k] over its positions.  An
    inconsistent plan raises ValueError, as for `order_walk`.
    """
    order = _elimination_order(_compile(floor, preds, up))
    last_read = [-1] * len(up)      # the last step that reads each value
    for t, (_, _, ps) in enumerate(order):
        for q in ps:
            last_read[q] = t
    frontier: list[int] = []        # positions whose values a state holds
    states = {(): 1 if steps is None else {0: 1}}
    for t, (k, f, ps) in enumerate(order):
        u = up[k]
        slot = {q: i for i, q in enumerate(frontier)}
        read = [slot[q] for q in ps]
        keep = [i for i, q in enumerate(frontier) if last_read[q] > t]
        live = last_read[k] > t
        frontier = [frontier[i] for i in keep] + [k] * live
        step = None if steps is None else steps[k]
        nxt: dict = {}
        for state, counts in states.items():
            low = f
            for i in read:
                if state[i] > low:
                    low = state[i]
            base = tuple(state[i] for i in keep)
            if step is None:
                if live:
                    for v in range(low, u + 1):
                        target = base + (v,)
                        nxt[target] = nxt.get(target, 0) + counts
                else:
                    nxt[base] = nxt.get(base, 0) + counts * (u - low + 1)
                continue
            # v = low comes last, so `counts` is no longer read when a new
            # state takes it over; a zero step must not alias it earlier.
            for v in range(u, low - 1, -1):
                target = base + (v,) if live else base
                shift = (v - low) * step
                dst = nxt.get(target)
                if dst is None:
                    nxt[target] = (
                        {key + shift: c for key, c in counts.items()}
                        if v > low else counts
                    )
                else:
                    get = dst.get
                    for key, c in counts.items():
                        key += shift
                        dst[key] = get(key, 0) + c
        states = nxt
    (counts,) = states.values()
    return counts


@lru_cache(maxsize=64)
def _prefix_plan(family: str, n: int):
    """The root poset, and each root's floor index, predecessors and bound index.

    Every FFLV marking (`marked_poset.fflv_marked_poset`) is a prefix sum
    m_1 + ... + m_i of the weight, with i its prefix index, so the indices
    are read off the labels.  A root (i, j) sits above t_i, whose index is
    i - 1.  Its bound is the least marking weakly above it, the one of least
    index since prefix sums never decrease: u_j at (j, j), index j, when the
    root is unbarred, and a v marking, index n, when it is barred.  The root
    order is a linear extension; covers point forward in it.
    """
    poset = build_poset(family, n)
    labels = poset.labels()
    floor = tuple(lab.row - 1 for lab in labels)
    preds = tuple(poset.predecessors(k) for k in range(len(labels)))
    up = tuple(n if lab.barred else lab.col for lab in labels)
    return poset, floor, preds, up


def _walk_plan(family: str, n: int, weight: tuple[int, ...]):
    """The root poset and each root's floor, predecessors and upper bound.

    Two gathers from the weight's n + 1 prefix sums through `_prefix_plan`;
    the walk and the graded count both read the marked order polytope from
    here.
    """
    poset, floor_at, preds, up_at = _prefix_plan(family, n)
    prefix = [0]
    for m in weight:
        prefix.append(prefix[-1] + m)
    at = prefix.__getitem__
    return poset, list(map(at, floor_at)), preds, list(map(at, up_at))


@lru_cache(maxsize=128)
def _walk_points(family: str, n: int, weight: tuple[int, ...]) -> tuple[LatticePoint, ...]:
    """Chain coordinates of the marked order points of the root poset."""
    _, floor, preds, up = _walk_plan(family, n, weight)
    return tuple(order_walk(floor, preds, up, True))


def lattice_points(family: str, n: int, weight) -> tuple[LatticePoint, ...]:
    """Points of the polytope for (family, n, weight), in lexicographic order.

    The weight may be any sequence; it is validated and made a tuple before
    the cache lookup.  Results are cached.
    """
    return _walk_points(family, n, check_weight(family, n, weight))


def _check_chain_range(floor, up, top: int) -> None:
    """Raise ArithmeticError unless 0 <= up[k] - floor[k] <= top on a walk
    plan: a chain coordinate is at most up[k] - floor[k], so packed digits
    with room for top never carry."""
    if any(not 0 <= u - f <= top for f, u in zip(floor, up)):
        raise ArithmeticError(
            f"a chain coordinate can exceed {top}; the radix would carry"
        )


@lru_cache(maxsize=128)
def _graded_count(family: str, n: int, weight: tuple[int, ...]):
    """`frontier_count` over the walk of `_walk_points`, graded by packed keys.

    A root's value v adds v - low to its chain coordinate and the degree,
    and v - low times its eps-coordinates to the weight, so its step is
    size + its eps-coordinates at their places.  A key is deg * size + sum
    over eps coordinates c of (wt_c + B_c) * place_c, a mixed-radix number
    with radix 2 B_c + 1 at coordinate c; the DP counts from 0, and the
    offset `zero` of the B_c digits is added back on decoding, since a
    final key is the sum of its steps.  Every chain
    coordinate is at most |weight| (a marking minus a marking), so every
    partial weight sum has |wt_c| <= B_c = |weight| * sum_a |eps_c(a)|: its
    digit stays within [0, 2 B_c], adding a step never carries, and the
    degree above all digits is unbounded.  A root whose step range exceeds
    |weight| raises ArithmeticError, since the proof would then fail.  The
    check runs on the plan before `frontier_count` folds its forced roots;
    folding only raises floors, so every step range only shrinks.

    The cache holds the {key: count} map undecoded, as a read-only view,
    with its codec (size, zero, radices, bounds); `add_graded_terms` reads it.
    """
    poset, floor, preds, up = _walk_plan(family, n, weight)
    top = sum(weight)
    _check_chain_range(floor, up, top)
    bounds = tuple(top * sum(abs(root.eps[c]) for root in poset.roots)
                   for c in range(n + 1))
    radices = tuple(2 * b + 1 for b in bounds)
    places = [1]
    for r in radices:
        places.append(places[-1] * r)
    size = places.pop()
    zero = sum(b * p for b, p in zip(bounds, places))
    steps = [size + sum(e * p for e, p in zip(root.eps, places))
             for root in poset.roots]
    counts = MappingProxyType(frontier_count(floor, preds, up, steps))
    return counts, size, zero, radices, bounds


def add_graded_terms(family: str, n: int, weight: tuple[int, ...], shift,
                     deg_shift: int, terms: dict[Weight, dict[int, int]]) -> None:
    """Add e^(shift - wt(s)) q^(deg(s) + deg_shift) over the lattice points s
    of a weight that `check_weight` has returned.

    ``terms`` maps eps-weights to {deg: count}; a weight it lacks gets a
    dict made here, so the caller owns every dict in it.  Each cached key of
    `_graded_count` is split once and grouped by weight code with one lookup,
    and each code is decoded once: digit c is wt_c + B_c, so the weight is
    shift_c + B_c - digit_c, and the last digit is what the divisions leave.
    """
    counts, size, zero, radices, bounds = _graded_count(family, n, weight)
    offset = zero + deg_shift * size
    by_code: dict[int, dict[int, int]] = {}
    get = by_code.get
    for key, c in counts.items():
        deg, code = divmod(key + offset, size)
        if (degs := get(code)) is None:
            by_code[code] = {deg: c}
        else:
            degs[deg] = c   # one key per (code, degree)
    *digits, (_, last) = zip(radices, map(add, shift, bounds))
    for code, degs in by_code.items():
        wt = []
        for r, top in digits:
            code, digit = divmod(code, r)
            wt.append(top - digit)
        wt.append(last - code)
        acc = terms.setdefault(tuple(wt), degs)
        if acc is not degs:     # an earlier call reached this weight: add
            for deg, c in degs.items():
                acc[deg] = acc.get(deg, 0) + c


def point_count(family: str, n: int, weight: tuple[int, ...]) -> int:
    """The number of lattice points of a weight that `check_weight` has
    returned: the sum of `_graded_count`'s cached counts."""
    return sum(_graded_count(family, n, weight)[0].values())


def plain_count(family: str, n: int, weight) -> int:
    """The number of lattice points, from `frontier_count` run plain over
    the walk plan: nothing is graded, walked or cached.  The weight is
    validated first."""
    _, floor, preds, up = _walk_plan(family, n, check_weight(family, n, weight))
    return frontier_count(floor, preds, up)


def graded_count(family: str, n: int, weight) -> Mapping[Weight, tuple[tuple[int, int], ...]]:
    """Lattice points counted by weight, then degree: {wt: ((deg, count), ...)}.

    ``dict(graded_count(...)[wt])`` equals the {deg: count} map of the
    points s with wt(s) = wt, as ``Counter(wt_deg(poset, s) ...)`` over
    ``lattice_points(...)`` gives it, but no point is enumerated.  Degrees
    ascend.  The weight is validated and made a tuple before the cache
    lookup.  Only the packed keys are cached: each call decodes them anew
    (zero shift gives -wt) into a fresh read-only mapping of tuples.
    """
    weight = check_weight(family, n, weight)
    terms: dict[Weight, dict[int, int]] = {}
    add_graded_terms(family, n, weight, (0,) * (n + 1), 0, terms)
    return MappingProxyType({tuple(-x for x in wt): tuple(sorted(degs.items()))
                             for wt, degs in terms.items()})


def _clear_caches() -> None:
    _walk_points.cache_clear()
    _graded_count.cache_clear()
    _prefix_plan.cache_clear()


# The cache controls, for callers that start each run from an empty cache.
lattice_points.cache_clear = _clear_caches
lattice_points.cache_info = _walk_points.cache_info


def _encode(points, radix: int, top: int) -> list[int]:
    """Mixed-radix codes sum s_k * radix^(N-1-k), first coordinate most significant.

    Every coordinate must lie in [0, top]; the caller picks top < radix.
    """
    if any(not 0 <= x <= top for x in set().union(*points)):
        raise ArithmeticError(
            f"a coordinate lies outside [0, {top}]; radix {radix} would carry"
        )
    codes = []
    for p in points:
        c = 0
        for x in p:
            c = c * radix + x
        codes.append(c)
    return codes


def _decode(code: int, radix: int, length: int) -> LatticePoint:
    digits = [0] * length
    for k in reversed(range(length)):
        code, digits[k] = divmod(code, radix)
    return tuple(digits)


def _compare(got: Set, want: Set, decode=lambda p: p) -> Counterexample | None:
    """None if got equals want, else the least point of want missing from
    got, else the least extra point of got; only that point is decoded."""
    if got == want:
        return None
    missing = want - got
    if missing:
        return Counterexample("missing", decode(min(missing)))
    return Counterexample("extra", decode(min(got - want)))


def _point_codes(family: str, n: int, weight: tuple[int, ...], radix: int, cut=()):
    """The mixed-radix codes of P(weight), as `_encode` gives them, from the
    frontier DP: no point is walked or stored.

    A position's step is its place: the j-th of the width positions not in
    ``cut`` has radix^(width-1-j), each cut one radix^width.  A chain
    coordinate is at most |weight|, proved here on the plan by
    `_check_chain_range`, and the caller picks radix > |weight|, so no kept
    digit carries: a key below radix^width is the code of a point that is 0
    on the cut, and without a cut every count is 1.  Returns the keys view.
    """
    _, floor, preds, up = _walk_plan(family, n, weight)
    _check_chain_range(floor, up, sum(weight))
    kept = [k for k in range(len(up)) if k not in cut]
    places = [radix ** len(kept)] * len(up)
    for k, e in zip(kept, reversed(range(len(kept)))):
        places[k] = radix ** e
    return frontier_count(floor, preds, up, places).keys()


class _Shared:
    """Values that a sweep's instances share: make(key) runs on a key's
    first take, and the value is dropped after the last of the takes
    counted up front in keys, so it lives no longer than it is needed."""

    def __init__(self, make, keys) -> None:
        self.make = make
        self.uses = Counter(keys)
        self.values = {}

    def take(self, key):
        value = self.values.get(key)
        if value is None:
            value = self.values[key] = self.make(key)
        self.uses[key] -= 1
        if not self.uses[key]:
            del self.values[key]
        return value


def minkowski_sweep(family: str, n: int, pairs):
    """Check FFLV(lam) + FFLV(mu) = FFLV(lam + mu) for each (lam, mu) in
    pairs, yielding None or the pair's `Counterexample` in pair order.

    Each result is the lexicographically first missing or extra point.
    Points are compared as mixed-radix integers with one radix r for the
    whole sweep, the largest |lam| + |mu| plus 1, the first coordinate most
    significant.  Every coordinate of FFLV(lam) is at most |lam| (a
    v-marking minus a t-marking), so p + q has all digits below r: integer
    addition is coordinate-wise addition with no carry, and integer order
    is lexicographic order, whatever r above the largest digit is picked.

    The two sides come from different engines: P(lam) and P(mu) from the
    walk (`lattice_points`), encoded and summed, and P(lam + mu) straight
    as codes from the frontier DP (`_point_codes`), so a fault in one is
    not cancelled by the same fault in the other.  A coordinate above |lam|
    or |mu| in its walked polytope (`_encode`), or a plan of lam + mu whose
    chain coordinates could exceed |lam| + |mu| (`_point_codes`), raises
    ArithmeticError at the first pair that reads it, since the codes would
    then no longer be proved to add without carry.

    What pairs share is computed once per call: each weight is encoded on
    its first use, and P(lam + mu) once per distinct sum, and each is
    dropped after the last pair that reads it.  Nothing outlives the call.
    All pairs are validated before the first result.
    """
    pairs = [(check_weight(family, n, lam), check_weight(family, n, mu))
             for lam, mu in pairs]
    radix = max((sum(lam) + sum(mu) for lam, mu in pairs), default=0) + 1
    sums = [tuple(map(add, lam, mu)) for lam, mu in pairs]
    length = len(build_poset(family, n).roots)

    def encode(weight):
        return _encode(lattice_points(family, n, weight), radix, sum(weight))

    codes = _Shared(encode, (w for pair in pairs for w in set(pair)))
    totals = _Shared(lambda lam_mu: _point_codes(family, n, lam_mu, radix), sums)

    # A function, so that a pair's sets are freed before the next pair's.
    def check(lam, mu, lam_mu):
        a = codes.take(lam)
        if lam == mu:   # addition commutes: each unordered pair once
            sumset = set(starmap(add, combinations_with_replacement(a, 2)))
        else:
            b = codes.take(mu)
            sumset = {x + y for x in a for y in b}
        total = totals.take(lam_mu)
        return _compare(sumset, total, lambda code: _decode(code, radix, length))

    for (lam, mu), lam_mu in zip(pairs, sums):
        yield check(lam, mu, lam_mu)


def minkowski_verify(
    family: str, n: int, lam: tuple[int, ...], mu: tuple[int, ...]
) -> Counterexample | None:
    """Check FFLV(lam) + FFLV(mu) = FFLV(lam + mu) on lattice points:
    `minkowski_sweep` over the one pair, so its radix is |lam| + |mu| + 1.

    Returns None on success, otherwise the lexicographically first missing
    or extra point.
    """
    (result,) = minkowski_sweep(family, n, [(lam, mu)])
    return result


def slice_verify(n: int, lam: tuple[int, ...]) -> Counterexample | None:
    """Check that the odd rank-n polytope is the even rank-(n+1) polytope
    for (lam, 0) sliced at the barred column n+1.

    Labels away from column n+1 agree verbatim between the two posets, so
    the identification is the identity on (row, col) pairs.  The odd points
    come from the walk, the even slice from `_point_codes` with column n+1
    cut: its codes below radix^width are compared with the odd points'
    codes in the same layout, and only the reported point is decoded.  An
    odd point with a coordinate outside [0, radix) has no code; then the
    sides are compared as tuples, and that point is missing from the slice.
    """
    lam = check_weight("odd", n, lam)
    odd_pts = lattice_points("odd", n, lam)
    labels = build_poset("even", n + 1).labels()
    cut = {k for k, lab in enumerate(labels) if lab.barred and lab.col == n + 1}
    radix, width = sum(lam) + 1, len(labels) - len(cut)
    codes = _point_codes("even", n + 1, lam + (0,), radix, cut)
    top = radix ** width
    sliced = {c for c in codes if c < top}
    try:
        odd_codes = set(_encode(odd_pts, radix, radix - 1))
    except ArithmeticError:
        return _compare({_decode(c, radix, width) for c in sliced}, set(odd_pts))
    return _compare(sliced, odd_codes, lambda code: _decode(code, radix, width))


def ehrhart_counts(
    family: str, n: int, lam: tuple[int, ...], t_max: int
) -> tuple[int, ...]:
    """Point counts of the polytopes for t * lam, t = 0, ..., t_max.

    The counts come from the walk, not from `graded_count`, so they stay
    independent of the DP that characters and `dim` run on: comparing them
    with a dimension formula checks the walk.
    """
    lam = check_weight(family, n, lam)
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    return tuple(
        len(lattice_points(family, n, tuple(t * m for m in lam)))
        for t in range(t_max + 1)
    )


def points_to_jsonlines(points) -> str:
    return "\n".join("[" + ", ".join(str(x) for x in p) + "]" for p in points)


def counts_to_csv(counts) -> str:
    lines = ["t,count"] + [f"{t},{c}" for t, c in enumerate(counts)]
    return "\n".join(lines)
