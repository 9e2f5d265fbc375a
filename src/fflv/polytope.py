"""Inequality systems and exact lattice-point enumeration for FFLV polytopes.

One inequality per symplectic Dyck path: the coordinates along the path sum
to at most the path bound.  All arithmetic is exact integer arithmetic.

`lattice_points` enumerates through the marked order polytope of the root
poset (`rootsys.fflv_markings`): it walks the roots in canonical row-major
order, a linear extension, giving each root an order value between the
largest value below it and the least marking above it, and emits the chain
coordinates value - (largest value below), which is the transfer map onto
the polytope.  Every such value extends to a full point, so the walk never
backtracks, and points come out in lexicographic order.  It builds no Dyck
path.  `enumerate_points` is the independent oracle: a depth-first search
over the path inequalities with per-row remaining-slack pruning.

`minkowski_verify` checks P(lam) + P(mu) = P(lam + mu) on integer codes:
each point is read as a mixed-radix number whose radix exceeds every
coordinate of P(lam + mu), so a sum of points is one integer addition and
the sumset is a set of ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .rootsys import (
    DyckPath,
    LatticePoint,
    RootLabel,
    RootPoset,
    build_poset,
    check_weight,
    dyck_paths,
    fflv_markings,
    path_bound,
)


class IneqRow(NamedTuple):
    support: frozenset[RootLabel]
    bound: int


@dataclass(frozen=True)
class InequalitySystem:
    """FFLV defining inequalities for one dominant weight, one row per path."""

    family: str
    n: int
    weight: tuple[int, ...]
    rows: tuple[IneqRow, ...]
    paths: tuple[DyckPath, ...] = field(compare=False, repr=False)
    poset: RootPoset = field(compare=False, repr=False)
    _row_support_idx: tuple = field(init=False, repr=False, compare=False)
    _rows_by_coord: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        support_idx = tuple(
            tuple(sorted(self.poset.index(lab) for lab in row.support))
            for row in self.rows
        )
        by_coord = [[] for _ in self.poset.roots]
        for r, idxs in enumerate(support_idx):
            for k in idxs:
                by_coord[k].append(r)
        object.__setattr__(self, "_row_support_idx", support_idx)
        object.__setattr__(self, "_rows_by_coord", tuple(tuple(r) for r in by_coord))

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "weight": list(self.weight),
            "rows": [
                {
                    "support": [lab.to_json() for lab in sorted(
                        row.support, key=self.poset.index)],
                    "bound": row.bound,
                }
                for row in self.rows
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
    """Exact membership test for a nonnegative integer point."""
    if len(s) != len(system.poset.roots):
        raise ValueError("point length must match the number of roots")
    if any(x < 0 for x in s):
        return False
    for idxs, row in zip(system._row_support_idx, system.rows):
        if sum(s[k] for k in idxs) > row.bound:
            return False
    return True


def violated_paths(system: InequalitySystem, s: LatticePoint) -> tuple[DyckPath, ...]:
    """Paths whose inequality s violates, in canonical path order."""
    if len(s) != len(system.poset.roots):
        raise ValueError("point length must match the number of roots")
    out = []
    for path, idxs, row in zip(system.paths, system._row_support_idx, system.rows):
        if sum(s[k] for k in idxs) > row.bound:
            out.append(path)
    return tuple(out)


def slack_search(by_coord, bounds) -> tuple[LatticePoint, ...]:
    """Nonnegative integer points whose sum over each row r is at most bounds[r].

    ``by_coord[k]`` lists the rows whose support holds coordinate k; every
    coordinate must lie on some row.  Points come out in lexicographic order.
    """
    ncoord = len(by_coord)
    slack = list(bounds)
    value = [0] * ncoord
    out: list[LatticePoint] = []

    def walk(k: int) -> None:
        if k == ncoord:
            out.append(tuple(value))
            return
        rows = by_coord[k]
        vmax = min(slack[r] for r in rows)
        for v in range(vmax + 1):
            value[k] = v
            if v:
                for r in rows:
                    slack[r] -= 1
            walk(k + 1)
        for r in rows:
            slack[r] += vmax
        value[k] = 0

    walk(0)
    return tuple(out)


def enumerate_points(system: InequalitySystem) -> tuple[LatticePoint, ...]:
    """All lattice points, in lexicographic order of the canonical coordinates."""
    return slack_search(system._rows_by_coord, [row.bound for row in system.rows])


@lru_cache(maxsize=128)
def _walk_points(family: str, n: int, weight: tuple[int, ...]) -> tuple[LatticePoint, ...]:
    """Chain coordinates of the marked order points, by an iterative walk.

    The root order is a linear extension, so when root k is reached every
    predecessor holds its value.  An odometer advances the last root still
    below its bound and resets the roots after it to their lows; it does not
    recurse, since the number of roots can exceed the recursion limit.
    """
    poset = build_poset(family, n)
    ncoord = len(poset.roots)
    row_floor = {}
    cap = [None] * ncoord
    for mark in fflv_markings(family, n, weight):
        if mark.below:
            row_floor[mark.root.row] = mark.value
        else:
            cap[poset.index(mark.root)] = mark.value
    floor = [row_floor[root.label.row] for root in poset.roots]
    preds = [poset.predecessors(k) for k in range(ncoord)]
    # Least marking weakly above each root; covers point forward in root order.
    up = [0] * ncoord
    for k in reversed(range(ncoord)):
        above = [up[q] for q in poset.successors(k)]
        if cap[k] is not None:
            above.append(cap[k])
        up[k] = min(above)

    x = [0] * ncoord        # order values
    s = [0] * ncoord        # chain coordinates x[k] - low(k)

    def reset(start: int) -> None:
        for k in range(start, ncoord):
            low = floor[k]
            for q in preds[k]:
                if x[q] > low:
                    low = x[q]
            x[k] = low
            s[k] = 0

    reset(0)
    out: list[LatticePoint] = []
    while True:
        out.append(tuple(s))
        k = ncoord - 1
        while k >= 0 and x[k] == up[k]:
            k -= 1
        if k < 0:
            return tuple(out)
        x[k] += 1
        s[k] += 1
        reset(k + 1)


def lattice_points(family: str, n: int, weight) -> tuple[LatticePoint, ...]:
    """Points of the polytope for (family, n, weight), in lexicographic order.

    The weight may be any sequence; it is validated and made a tuple before
    the cache lookup.  Results are cached.
    """
    return _walk_points(family, n, check_weight(family, n, weight))


# The cache controls, for callers that start each run from an empty cache.
lattice_points.cache_clear = _walk_points.cache_clear
lattice_points.cache_info = _walk_points.cache_info


class Counterexample(NamedTuple):
    kind: str
    point: LatticePoint

    def to_json(self) -> dict:
        return {"kind": self.kind, "point": list(self.point)}


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


def minkowski_verify(
    family: str, n: int, lam: tuple[int, ...], mu: tuple[int, ...]
) -> Counterexample | None:
    """Check FFLV(lam) + FFLV(mu) = FFLV(lam + mu) on lattice points.

    Returns None on success, otherwise the lexicographically first missing
    or extra point.  Points are compared as mixed-radix integers with radix
    r = |lam| + |mu| + 1, the first coordinate most significant.  Every
    coordinate of FFLV(lam) is at most |lam| (a v-marking minus a t-marking),
    so p + q has all digits below r: integer addition is coordinate-wise
    addition with no carry, and integer order is lexicographic order.  A
    coordinate above |lam|, |mu| or |lam| + |mu| in its polytope raises
    ArithmeticError, since the codes would then no longer add without carry.
    """
    lam = check_weight(family, n, lam)
    mu = check_weight(family, n, mu)
    radix = sum(lam) + sum(mu) + 1
    points = lattice_points(family, n, lam)
    length = len(points[0])     # P(lam) always holds the zero point
    a = _encode(points, radix, sum(lam))
    b = _encode(lattice_points(family, n, mu), radix, sum(mu))
    lam_mu = tuple(x + y for x, y in zip(lam, mu))
    total = set(_encode(lattice_points(family, n, lam_mu), radix, radix - 1))
    sumset = {x + y for x in a for y in b}
    if sumset == total:
        return None
    missing = total - sumset
    if missing:
        return Counterexample("missing", _decode(min(missing), radix, length))
    return Counterexample("extra", _decode(min(sumset - total), radix, length))


def slice_verify(n: int, lam: tuple[int, ...]) -> Counterexample | None:
    """Check that the odd rank-n polytope is the even rank-(n+1) polytope
    for (lam, 0) sliced at the barred column n+1.

    Labels away from column n+1 agree verbatim between the two posets, so
    the identification is the identity on (row, col) pairs.
    """
    if len(lam) != n:
        raise ValueError("weight length must equal the rank")
    odd_pts = set(lattice_points("odd", n, tuple(lam)))
    even_sys = inequalities("even", n + 1, tuple(lam) + (0,))
    keep = [
        k
        for k, root in enumerate(even_sys.poset.roots)
        if not (root.label.barred and root.label.col == n + 1)
    ]
    sliced = set()
    for p in enumerate_points(even_sys):
        if all(p[k] == 0 for k in range(len(p)) if k not in keep):
            sliced.add(tuple(p[k] for k in keep))
    missing = odd_pts - sliced
    if missing:
        return Counterexample("missing", min(missing))
    extra = sliced - odd_pts
    if extra:
        return Counterexample("extra", min(extra))
    return None


def ehrhart_counts(
    family: str, n: int, lam: tuple[int, ...], t_max: int
) -> tuple[int, ...]:
    """Point counts of the polytopes for t * lam, t = 0, ..., t_max."""
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
