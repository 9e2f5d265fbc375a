"""Marked posets, their order and chain polytopes, and the transfer map.

A marked poset is a finite poset together with integer markings on a subset
of its elements.  Two lattice-point families are attached to it: order
points (monotone integer labellings extending the markings) and chain
points (nonnegative labellings of the unmarked elements whose sums along
saturated marked-to-marked chains stay within the marking differences).
The transfer map sends order points to chain points by taking consecutive
differences; on every poset handled here it is a bijection, which
`abs_verify` checks by brute force.  A `MarkedPoset` stores its walk
plan, built in the one downward pass that also rejects a marking that
decreases along a chain.  `order_points` walks it, and `order_count`
counts it without listing a point on `polytope.frontier_count`, the
frontier DP that also grades the lattice points; by the
Ardila-Bliem-Salazar bijection that is the chain-point count as well.

The symplectic polytopes of this package arise as chain polytopes: the root
poset gains one marked element below each row and one above each possible
path end, with cumulative-sum markings, so that marked-to-marked chains
reproduce the Dyck-path inequality system.  A second construction attaches
a single extra unmarked element to the type-A chain poset and compares the
resulting counts with a product formula with one extra linear factor;
`n1_report` takes each count from `order_count`, so it enumerates no chain
and no point.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import accumulate, product
from operator import index as as_int, itemgetter

from .polytope import frontier_count, order_walk, slack_search, topological_order
from .rootsys import (
    Counterexample, RootLabel, _Frozen, build_poset, check_ints, check_weight,
)


def _element_name(e) -> str:
    """Stable display name for a poset element id."""
    if isinstance(e, RootLabel):
        return str(e)
    if isinstance(e, tuple) and len(e) == 2 and e[0] in ("t", "u", "v"):
        return f"{e[0]}{e[1]}"
    if isinstance(e, tuple) and len(e) == 3 and e[0] == "a":
        return f"a({e[1]},{e[2]})"
    return str(e)


class MarkedPoset(_Frozen):
    """Finite poset with integer markings on some elements.

    ``elements`` fixes the canonical coordinate order: order points are
    tuples over all elements, chain points are tuples over the unmarked
    elements, both in this order.  As in Ardila-Bliem-Salazar, every
    minimal and every maximal element must be marked, and a marking that
    is not an integer raises `TypeError`.  The poset is checked and
    translated once into indices into ``elements``, and the functions of
    this module run on it.
    """

    # Per element index: its marking (None where unmarked), successor and
    # predecessor indices.  Then the walk plan, over the elements in a
    # canonical-first topological order: per element its walk position, and
    # per walk position its floor, its predecessors' positions and its bound.
    __slots__ = (
        "elements", "covers", "markings", "_marking", "_succ", "_pred", "_plan",
    )

    def __init__(self, elements: tuple, covers: tuple, markings: tuple) -> None:
        index = {e: i for i, e in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError("duplicate elements")
        marking = [None] * len(index)
        for e, v in markings:
            if e not in index:
                raise ValueError(f"marking on unknown element {_element_name(e)}")
            if marking[index[e]] is not None:
                raise ValueError(f"second marking on element {_element_name(e)}")
            try:
                marking[index[e]] = as_int(v)
            except TypeError:
                raise TypeError(
                    f"marking {v!r} of element {_element_name(e)} is not an integer"
                ) from None
        succ = [[] for _ in index]
        pred = [[] for _ in index]
        for a, b in covers:
            if a not in index or b not in index:
                raise ValueError("cover on unknown element")
            succ[index[a]].append(index[b])
            pred[index[b]].append(index[a])
        walk = topological_order(pred)
        # Minimal elements first, then maximal ones, each in canonical order.
        for adjacent in (pred, succ):
            for e, m, near in zip(elements, marking, adjacent):
                if m is None and not near:
                    raise ValueError(
                        f"extremal element {_element_name(e)} is unmarked; "
                        "the polytope would be unbounded"
                    )
        # One downward pass: an element's bound is its marking, or else the
        # least bound above it.  A marked element with a smaller bound above
        # it lies below a smaller marking: the markings decrease on that chain.
        up = list(marking)
        for i in reversed(walk):
            above = min((up[s] for s in succ[i]), default=up[i])
            if up[i] is None:
                up[i] = above
            elif above < up[i]:
                name = _element_name(elements[i])
                raise ValueError(f"marking decreases along a chain at {name}")
        # A marked element has floor = bound = its marking, so
        # `polytope._compile` fixes it and folds it into the floors above it;
        # an unmarked one has the least marking as floor.
        position = tuple(sorted(range(len(walk)), key=walk.__getitem__))
        lowest = min((m for m in marking if m is not None), default=0)
        plan = (position,
                tuple(lowest if marking[i] is None else marking[i] for i in walk),
                tuple(tuple(position[q] for q in pred[i]) for i in walk),
                tuple(up[i] for i in walk))
        super().__init__(elements, covers, markings, _marking=tuple(marking),
                         _succ=tuple(map(tuple, succ)), _pred=tuple(map(tuple, pred)),
                         _plan=plan)

    @property
    def unmarked(self) -> tuple:
        return tuple(e for e, m in zip(self.elements, self._marking) if m is None)

    def marking_of(self, e):
        marks = dict(self.markings)
        if e in marks:
            return marks[e]
        if e in self.elements:
            raise ValueError(f"element {_element_name(e)} is unmarked")
        raise ValueError(f"unknown element {_element_name(e)}")

    def __len__(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        names = [_element_name(e) for e in self.elements]
        if len(set(names)) < len(names):
            clash = next(x for k, x in enumerate(names) if x in names[:k])
            raise ValueError(f"two elements share the display name {clash}")
        return {
            "elements": names,
            "covers": [
                [_element_name(a), _element_name(b)] for a, b in self.covers
            ],
            "markings": {
                name: m for name, m in zip(names, self._marking) if m is not None
            },
        }


def order_points(poset: MarkedPoset) -> tuple[tuple[int, ...], ...]:
    """Integer labellings that extend the markings monotonically.

    Each point is a tuple over all elements in canonical order, with marked
    slots holding their markings.  `polytope.order_walk` fixes the marked
    elements and takes each unmarked one from the largest value below it
    to the least marking above it, in walk order.
    """
    position, floor, preds, up = poset._plan
    points = order_walk(floor, preds, up, False)
    if len(position) > 1:       # itemgetter of one slot returns a bare value
        points = map(itemgetter(*position), points)
    # On FFLV and random posets the canonical-first walk is sorted already.
    return tuple(sorted(points))


def order_count(poset: MarkedPoset) -> int:
    """The number of order points, counted by `polytope.frontier_count`.

    No point is listed.  Transfer is a bijection onto the chain points
    (Ardila-Bliem-Salazar), so this is also the number of chain points,
    without enumerating a single marked-to-marked chain.
    """
    _, floor, preds, up = poset._plan
    return frontier_count(floor, preds, up)


def chain_constraints(poset: MarkedPoset) -> tuple[tuple[frozenset, int], ...]:
    """Constraints (support, bound) from saturated marked-to-marked chains.

    Each chain a < x_1 < ... < x_k < b with a, b marked and all x_i unmarked
    contributes sum(x_i) <= marking(b) - marking(a).  Chains without
    unmarked interior impose nothing.
    """
    elements, marking, succ = poset.elements, poset._marking, poset._succ
    rows: list[tuple[frozenset, int]] = []
    seen = set()
    for a, base in enumerate(marking):
        if base is None:
            continue
        stack = [(a, ())]
        while stack:
            i, interior = stack.pop()
            for s in succ[i]:
                if marking[s] is None:
                    stack.append((s, interior + (s,)))
                elif interior:
                    row = (frozenset(elements[k] for k in interior), marking[s] - base)
                    if row not in seen:
                        seen.add(row)
                        rows.append(row)
    return tuple(rows)


def chain_points(poset: MarkedPoset) -> tuple[tuple[int, ...], ...]:
    """Nonnegative labellings of the unmarked elements within every chain bound.

    Each point is a tuple over the unmarked elements in canonical order,
    and the points come out in lexicographic order.
    """
    coord = {e: k for k, e in enumerate(poset.unmarked)}
    rows = chain_constraints(poset)
    supports = [tuple(coord[e] for e in support) for support, _ in rows]
    return slack_search(len(coord), supports, [bound for _, bound in rows])


def transfer(poset: MarkedPoset, x) -> tuple[int, ...]:
    """Order point -> chain point by consecutive differences.

    ``x`` may be a tuple over all elements in canonical order or a mapping
    from elements to values.  The value of an unmarked element p becomes
    x_p - max over covers q of p of x_q.
    """
    if isinstance(x, Mapping):
        for e, v in zip(poset.elements, poset._marking):
            if e not in x and v is None:
                raise ValueError(f"order point has no value for {_element_name(e)}")
            if e not in x:
                raise ValueError(f"marked element {_element_name(e)} must equal {v}")
        # Every element has a value, so a longer mapping has a key that is not one.
        if len(x) > len(poset.elements):
            junk = _element_name(next(e for e in x if e not in poset.elements))
            raise ValueError(f"order point has a value for {junk}, which is not an element")
        x = tuple(x[e] for e in poset.elements)
    elif len(x) != len(poset.elements):
        raise ValueError("order point has the wrong length")
    # One pass over the elements; a wrong marking is reported before a
    # decreasing cover.  Minimal elements are marked, so have no image.
    out, monotone = [], True
    for e, xe, v, below in zip(poset.elements, x, poset._marking, poset._pred):
        if v is not None and xe != v:
            raise ValueError(f"marked element {_element_name(e)} must equal {v}")
        if not below:
            continue
        low = x[below[0]]
        for q in below:
            if x[q] > low:
                low = x[q]
        if xe < low:
            monotone = False
        elif v is None:
            out.append(xe - low)
    if not monotone:
        raise ValueError("labelling is not monotone; not an order point")
    return tuple(out)


def abs_verify(poset: MarkedPoset) -> Counterexample | None:
    """Brute-force check that transfer is a bijection onto the chain points."""
    return check_transfer(poset, order_points(poset), chain_points(poset))


def check_transfer(poset: MarkedPoset, order, chain) -> Counterexample | None:
    """`abs_verify` on the poset's order and chain points, computed by the caller."""
    chain = set(chain)
    seen = set()
    for x in order:
        s = transfer(poset, x)
        if s not in chain:
            return Counterexample("image_outside_chain_polytope", x)
        if s in seen:
            return Counterexample("transfer_not_injective", s)
        seen.add(s)
    if len(seen) != len(chain):
        missing = min(chain - seen)
        return Counterexample("transfer_not_surjective", missing)
    return None


def fflv_marked_poset(family: str, n: int, weight: tuple[int, ...]) -> MarkedPoset:
    """Root poset with cumulative-sum markings realizing the polytope.

    Below the first root of row i sits t_i, marked m_1 + ... + m_{i-1};
    above each diagonal root (j,j) sits u_j, marked m_1 + ... + m_j, and
    above each antidiagonal root (j,jbar) sits v_j, marked m_1 + ... + m_n.
    Saturated marked-to-marked chains are then exactly the Dyck paths, and
    the marking differences telescope to the path bounds, so the chain
    polytope coincides with the inequality system of the family.  The
    elements are the roots, then t_1..t_n, u_1.. and v_1..v_n.
    """
    weight = check_weight(family, n, weight)
    prefix = list(accumulate(weight, initial=0))
    root_poset = build_poset(family, n)
    labels = root_poset.labels()
    marks = {"t": [], "u": [], "v": []}     # kind -> (root, marking) by row
    row = 0
    for lab in labels:
        if lab.row != row:                  # the first root of its row
            row = lab.row
            marks["t"].append((lab, prefix[row - 1]))
        if lab.row == lab.col:
            marks["v" if lab.barred else "u"].append(
                (lab, prefix[n if lab.barred else row]))
    elements = list(labels)
    covers = [(labels[a], labels[b]) for a, b in root_poset.covers]
    markings = []
    for kind, roots in marks.items():
        for root, value in roots:
            e = (kind, root.row)
            elements.append(e)
            covers.append((e, root) if kind == "t" else (root, e))
            markings.append((e, value))
    return MarkedPoset(tuple(elements), tuple(covers), tuple(markings))


def _int_arg(value, name: str) -> int:
    """value read with `operator.index`; a non-integer raises TypeError naming it."""
    try:
        return as_int(value)
    except TypeError:
        raise TypeError(f"{name} {value!r} is not an integer") from None


def _check_n1_case(k: int, m: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(k, m) read with `operator.index`; raise unless it is a rank-one family case."""
    k, m = _int_arg(k, "k"), check_ints(m, "coefficient")
    if k < 1:
        raise ValueError("k must be positive")
    if len(m) != k - 1:
        raise ValueError("coefficient vector must have length k-1")
    if any(x < 0 for x in m):
        raise ValueError("coefficients must be nonnegative")
    return k, m


def n1_formula(k: int, m: tuple[int, ...]) -> int:
    """Product formula with one extra linear factor in front.

    ((k + sum i*m_i) / k) * prod_{1<=i<=j<=k-1} (m_i+...+m_j + j-i+1)/(j-i+1),
    as one integer numerator over one integer denominator; a remainder
    raises ArithmeticError.  The product alone counts the chain points of
    the type-A poset with k-1 coefficient slots; the front factor is what
    the extra poset element must buy.
    """
    k, m = _check_n1_case(k, m)
    num, den = k + sum(i * x for i, x in enumerate(m, start=1)), k
    for i in range(k - 1):      # segment = m_(i+1) + ... + m_(i+length)
        segment = 0
        for length, x in enumerate(m[i:], start=1):
            segment += x
            num *= segment + length
            den *= length
    val, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("formula value is not integral")
    return val


# Where `n1_family_poset` puts the extra element w for k >= 2: w covers a and
# is covered by b, and with True replaces the cover a -> b, with False runs
# beside the covers.  A row or column -1 is the last one, k - 1.
_N1_PLACEMENT = {
    "below_first": (("t", 1), ("a", 1, 1), True),
    "above_first": (("a", 1, 1), ("u", 1), True),
    "parallel_first": (("t", 1), ("u", 1), False),
    "below_last": (("t", -1), ("a", -1, -1), True),
    "above_last": (("a", -1, -1), ("u", -1), True),
    "row1_end": (("a", 1, -1), ("u", -1), False),
}
n1_attachments: tuple[str, ...] = tuple(_N1_PLACEMENT)


def n1_family_poset(k: int, m: tuple[int, ...], attachment: str) -> MarkedPoset:
    """Type-A marked poset plus one extra unmarked element w.

    The type-A part has elements ("a", i, j) for 1 <= i <= j <= k-1 with row
    and column covers, marked ("t", i) below each ("a", i, i) and ("u", j)
    above each ("a", j, j), so marked-to-marked chains bound the row
    segments by m_i + ... + m_j.  The position of w is not pinned down a
    priori; ``attachment`` selects one of the structurally distinct
    candidates in `_N1_PLACEMENT`, and `n1_report` determines
    experimentally which of them reproduces `n1_formula`.
    """
    if attachment not in n1_attachments:
        raise ValueError(f"unknown attachment {attachment!r}")
    k, m = _check_n1_case(k, m)
    if k == 1:
        # No roots at all: every candidate degenerates to a single element
        # pinched between two zero markings.
        return MarkedPoset(
            ("w", ("t", 1), ("u", 0)),
            ((("t", 1), "w"), ("w", ("u", 0))),
            ((("t", 1), 0), (("u", 0), 0)),
        )
    elements, covers, marked = [], [], []
    for i in range(1, k):
        for j in range(i, k):
            elements.append(("a", i, j))
            if j + 1 < k:
                covers.append((("a", i, j), ("a", i, j + 1)))
            if i + 1 <= j:
                covers.append((("a", i, j), ("a", i + 1, j)))
    for i in range(1, k):
        marked += [(("t", i), sum(m[: i - 1])), (("u", i), sum(m[:i]))]
        covers += [(("t", i), ("a", i, i)), (("a", i, i), ("u", i))]
    *ends, replaces = _N1_PLACEMENT[attachment]
    # Rows and columns run over 1..k-1, so % k keeps them and sends -1 to k-1.
    a, b = ((kind, *(i % k for i in rows)) for kind, *rows in ends)
    if replaces:
        covers.remove((a, b))
    covers += [(a, "w"), ("w", b)]
    elements += ["w"] + [e for e, _ in marked]
    return MarkedPoset(tuple(elements), tuple(covers), tuple(marked))


def n1_report(max_k: int, max_coeff: int) -> dict:
    """Compare chain-point counts with the product formula per attachment.

    Sweeps 1 <= k <= max_k and all coefficient vectors with entries up to
    max_coeff; an attachment fails at its first mismatch, which is recorded.
    Each count is `order_count`, which equals the chain-point count by the
    transfer bijection, so no chain is enumerated.
    """
    max_k, max_coeff = _int_arg(max_k, "max_k"), _int_arg(max_coeff, "max_coeff")
    if max_k < 1:
        raise ValueError("max_k must be positive")
    if max_coeff < 0:
        raise ValueError("max_coeff must be nonnegative")
    results = []
    for attachment in n1_attachments:
        checked, failure = 0, None
        cases = ((k, m) for k in range(1, max_k + 1)
                 for m in product(range(max_coeff + 1), repeat=k - 1))
        for checked, (k, m) in enumerate(cases, start=1):
            expected = n1_formula(k, m)
            got = order_count(n1_family_poset(k, m, attachment))
            if got != expected:
                failure = {
                    "k": k,
                    "m": list(m),
                    "count": got,
                    "formula": expected,
                }
                break
        results.append(
            {
                "attachment": attachment,
                "status": "fail" if failure else "pass",
                "checked": checked,
                "counterexample": failure,
            }
        )
    return {
        "max_k": max_k,
        "max_coeff": max_coeff,
        "results": results,
        "passing": [r["attachment"] for r in results if r["status"] == "pass"],
    }
