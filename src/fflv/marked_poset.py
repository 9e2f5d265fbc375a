"""Marked posets, their order and chain polytopes, and the transfer map.

A marked poset is a finite poset together with integer markings on a subset
of its elements.  Two lattice-point families are attached to it: order
points (monotone integer labellings extending the markings) and chain
points (nonnegative labellings of the unmarked elements whose sums along
saturated marked-to-marked chains stay within the marking differences).
The transfer map sends order points to chain points by taking consecutive
differences; on every poset handled here it is a bijection, which
`abs_verify` checks by brute force.

The symplectic polytopes of this package arise as chain polytopes: the root
poset gains one marked element below each row and one above each possible
path end, with cumulative-sum markings, so that marked-to-marked chains
reproduce the Dyck-path inequality system.  A second construction attaches
a single extra unmarked element to the type-A chain poset and compares the
resulting counts with a product formula with one extra linear factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import itemgetter

from .polytope import Counterexample, order_walk, slack_search
from .rootsys import RootLabel, build_poset, check_weight, fflv_markings


def _element_name(e) -> str:
    """Stable display name for a poset element id."""
    if isinstance(e, RootLabel):
        return str(e)
    if isinstance(e, tuple) and len(e) == 2 and e[0] in ("t", "u", "v"):
        return f"{e[0]}{e[1]}"
    if isinstance(e, tuple) and len(e) == 3 and e[0] == "a":
        return f"a({e[1]},{e[2]})"
    return str(e)


@dataclass(frozen=True)
class MarkedPoset:
    """Finite poset with integer markings on some elements.

    ``elements`` fixes the canonical coordinate order: order points are
    tuples over all elements, chain points are tuples over the unmarked
    elements, both in this order.
    """

    elements: tuple
    covers: tuple
    markings: tuple

    _marking: dict = field(init=False, repr=False, compare=False)
    _succ: dict = field(init=False, repr=False, compare=False)
    _pred: dict = field(init=False, repr=False, compare=False)
    _topo: tuple = field(init=False, repr=False, compare=False)
    # Index arrays for `transfer`: unmarked elements, (index, marking) pairs,
    # cover index pairs, and (index, predecessor indices) per unmarked element.
    _unmarked: tuple = field(init=False, repr=False, compare=False)
    _marked_idx: tuple = field(init=False, repr=False, compare=False)
    _cover_idx: tuple = field(init=False, repr=False, compare=False)
    _unmarked_preds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {e: i for i, e in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise ValueError("duplicate elements")
        marking = dict(self.markings)
        for e in marking:
            if e not in index:
                raise ValueError(f"marking on unknown element {_element_name(e)}")
        succ = {e: [] for e in self.elements}
        pred = {e: [] for e in self.elements}
        for a, b in self.covers:
            if a not in index or b not in index:
                raise ValueError("cover on unknown element")
            succ[a].append(b)
            pred[b].append(a)
        object.__setattr__(self, "_marking", marking)
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", pred)
        object.__setattr__(self, "_topo", self._toposort(index))
        self._check_monotone_markings()
        unmarked = tuple(e for e in self.elements if e not in marking)
        object.__setattr__(self, "_unmarked", unmarked)
        object.__setattr__(
            self, "_marked_idx", tuple((index[e], v) for e, v in marking.items())
        )
        object.__setattr__(
            self, "_cover_idx", tuple((index[a], index[b]) for a, b in self.covers)
        )
        object.__setattr__(
            self,
            "_unmarked_preds",
            tuple((index[e], tuple(index[q] for q in pred[e])) for e in unmarked),
        )

    def _toposort(self, index: dict) -> tuple:
        # Canonical-first, so the order is canonical wherever that is a linear extension.
        indeg = {e: len(self._pred[e]) for e in self.elements}
        ready = [i for i, e in enumerate(self.elements) if indeg[e] == 0]
        out = []
        while ready:
            i = min(ready)
            ready.remove(i)
            e = self.elements[i]
            out.append(e)
            for s in self._succ[e]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(index[s])
        if len(out) != len(self.elements):
            raise ValueError("cover relation contains a cycle")
        return tuple(out)

    def _check_monotone_markings(self) -> None:
        # Along any chain between marked elements the markings must weakly
        # increase; propagate the running maximum of marked values downward.
        best = {e: None for e in self.elements}
        for e in self._topo:
            here = best[e]
            if e in self._marking:
                m = self._marking[e]
                if here is not None and here > m:
                    raise ValueError(
                        f"marking decreases along a chain at {_element_name(e)}"
                    )
                here = m if here is None else max(here, m)
            for s in self._succ[e]:
                if here is not None and (best[s] is None or best[s] < here):
                    best[s] = here

    @property
    def marked(self) -> frozenset:
        return frozenset(self._marking)

    @property
    def unmarked(self) -> tuple:
        return self._unmarked

    def marking_of(self, e):
        return self._marking[e]

    def is_marked(self, e) -> bool:
        return e in self._marking

    def successors(self, e) -> tuple:
        return tuple(self._succ[e])

    def minimal(self) -> tuple:
        return tuple(e for e in self.elements if not self._pred[e])

    def maximal(self) -> tuple:
        return tuple(e for e in self.elements if not self._succ[e])

    def __len__(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        return {
            "elements": [_element_name(e) for e in self.elements],
            "covers": [
                [_element_name(a), _element_name(b)] for a, b in self.covers
            ],
            "markings": {
                _element_name(e): v
                for e, v in sorted(
                    self._marking.items(),
                    key=lambda it: self.elements.index(it[0]),
                )
            },
        }


def _require_marked_extremes(poset: MarkedPoset) -> None:
    for e in poset.minimal() + poset.maximal():
        if not poset.is_marked(e):
            raise ValueError(
                f"extremal element {_element_name(e)} is unmarked; "
                "the polytope would be unbounded"
            )


def order_points(poset: MarkedPoset) -> tuple[tuple[int, ...], ...]:
    """Integer labellings that extend the markings monotonically.

    Each point is a tuple over all elements in canonical order, with marked
    slots holding their markings.  `polytope.order_walk` takes each unmarked
    element from the largest value below it to the least marking above it.
    """
    _require_marked_extremes(poset)
    marking = poset._marking
    upper: dict = {}
    for e in reversed(poset._topo):
        upper[e] = marking[e] if e in marking else min(upper[s] for s in poset._succ[e])
    walk = [e for e in poset._topo if e not in marking]
    pos = {e: k for k, e in enumerate(walk)}
    lowest = min(marking.values(), default=0)     # at or below every value
    floor = [max((marking[q] for q in poset._pred[e] if q in marking), default=lowest)
             for e in walk]
    preds = [[pos[q] for q in poset._pred[e] if q in pos] for e in walk]
    # Each canonical slot indexes into (walked values + markings).
    marks = tuple(marking.values())
    mark_slot = {e: len(walk) + j for j, e in enumerate(marking)}
    slots = [pos[e] if e in pos else mark_slot[e] for e in poset.elements]
    if len(slots) < 2:      # no walked element, and itemgetter needs two slots
        return (tuple(marks),)
    pick = itemgetter(*slots)
    points = [
        pick(x + marks)
        for x in order_walk(floor, preds, [upper[e] for e in walk], False)
    ]
    # On FFLV and random posets the canonical-first walk is sorted already.
    return tuple(sorted(points))


def chain_constraints(poset: MarkedPoset) -> tuple[tuple[frozenset, int], ...]:
    """Constraints (support, bound) from saturated marked-to-marked chains.

    Each chain a < x_1 < ... < x_k < b with a, b marked and all x_i unmarked
    contributes sum(x_i) <= marking(b) - marking(a).  Chains without
    unmarked interior impose nothing.
    """
    rows: list[tuple[frozenset, int]] = []
    seen = set()
    for a in sorted(poset.marked, key=poset.elements.index):
        base = poset.marking_of(a)
        stack = [(a, ())]
        while stack:
            e, interior = stack.pop()
            for s in poset.successors(e):
                if poset.is_marked(s):
                    if interior:
                        row = (frozenset(interior), poset.marking_of(s) - base)
                        if row not in seen:
                            seen.add(row)
                            rows.append(row)
                else:
                    stack.append((s, interior + (s,)))
    return tuple(rows)


def chain_points(poset: MarkedPoset) -> tuple[tuple[int, ...], ...]:
    """Nonnegative labellings of the unmarked elements within every chain bound.

    Each point is a tuple over the unmarked elements in canonical order,
    and the points come out in lexicographic order.
    """
    _require_marked_extremes(poset)
    coords = poset.unmarked
    rows = chain_constraints(poset)
    by_coord = [
        [r for r, (support, _) in enumerate(rows) if e in support] for e in coords
    ]
    for e, on in zip(coords, by_coord):
        if not on:
            raise ValueError(f"element {_element_name(e)} lies on no marked chain")
    return slack_search(by_coord, [bound for _, bound in rows])


def transfer(poset: MarkedPoset, x) -> tuple[int, ...]:
    """Order point -> chain point by consecutive differences.

    ``x`` may be a tuple over all elements in canonical order or a mapping
    from elements to values.  The value of an unmarked element p becomes
    x_p - max over covers q of p of x_q.
    """
    if isinstance(x, dict):
        for e, v in poset._marking.items():
            if x.get(e) != v:
                raise ValueError(f"marked element {_element_name(e)} must equal {v}")
        x = tuple(x[e] for e in poset.elements)
    else:
        if len(x) != len(poset.elements):
            raise ValueError("order point has the wrong length")
        for i, v in poset._marked_idx:
            if x[i] != v:
                raise ValueError(
                    f"marked element {_element_name(poset.elements[i])} must equal {v}"
                )
    for a, b in poset._cover_idx:
        if x[a] > x[b]:
            raise ValueError("labelling is not monotone; not an order point")
    out = []
    for i, preds in poset._unmarked_preds:
        if not preds:
            raise ValueError(
                f"unmarked element {_element_name(poset.elements[i])} has no predecessor"
            )
        low = x[preds[0]]
        for q in preds:
            if x[q] > low:
                low = x[q]
        out.append(x[i] - low)
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

    The markings are those of `rootsys.fflv_markings`: t_i below the initial
    root of row i, u_j above each diagonal root (j,j) and v_j above each
    antidiagonal root (j,jbar).  Saturated marked-to-marked chains are then
    exactly the Dyck paths, and the marking differences telescope to the
    path bounds, so the chain polytope coincides with the inequality system
    of the family.
    """
    weight = check_weight(family, n, weight)
    root_poset = build_poset(family, n)
    labels = root_poset.labels()
    covers = [
        (labels[a], labels[b]) for a, b in root_poset.covers
    ]
    marks = fflv_markings(family, n, weight)
    for mark in marks:
        if mark.below:
            covers.append((mark.element, mark.root))
        else:
            covers.append((mark.root, mark.element))
    elements = tuple(labels) + tuple(mark.element for mark in marks)
    return MarkedPoset(
        elements, tuple(covers), tuple((mark.element, mark.value) for mark in marks)
    )


def n1_formula(k: int, m: tuple[int, ...]) -> int:
    """Product formula with one extra linear factor in front.

    ((k + sum i*m_i) / k) * prod_{1<=i<=j<=k-1} (m_i+...+m_j + j-i+1)/(j-i+1),
    evaluated exactly; the result is asserted to be an integer.  The product
    alone counts the chain points of the type-A poset with k-1 coefficient
    slots; the for-free factor is what the extra poset element must buy.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if len(m) != k - 1:
        raise ValueError("coefficient vector must have length k-1")
    if any(x < 0 for x in m):
        raise ValueError("coefficients must be nonnegative")
    val = Fraction(k + sum(i * x for i, x in enumerate(m, start=1)), k)
    for i in range(1, k):
        for j in range(i, k):
            val *= Fraction(sum(m[i - 1 : j]) + j - i + 1, j - i + 1)
    if val.denominator != 1:
        raise ArithmeticError("formula value is not integral")
    return int(val)


n1_attachments: tuple[str, ...] = (
    "below_first",
    "above_first",
    "parallel_first",
    "below_last",
    "above_last",
    "row1_end",
)


def _type_a_base(k: int, m: tuple[int, ...]):
    """Type-A chain poset with cumulative markings for k-1 coefficients.

    Elements ("a", i, j) for 1 <= i <= j <= k-1 with row and column covers;
    marked ("t", i) below each ("a", i, i) and ("u", j) above each
    ("a", j, j), so marked-to-marked chains bound the row segments by
    m_i + ... + m_j.
    """
    elements: list = []
    covers: list = []
    for i in range(1, k):
        for j in range(i, k):
            elements.append(("a", i, j))
            if j + 1 < k:
                covers.append((("a", i, j), ("a", i, j + 1)))
            if i + 1 <= j:
                covers.append((("a", i, j), ("a", i + 1, j)))
    marked = []
    for i in range(1, k):
        marked.append((("t", i), sum(m[: i - 1])))
        covers.append((("t", i), ("a", i, i)))
        marked.append((("u", i), sum(m[:i])))
        covers.append((("a", i, i), ("u", i)))
    return elements, covers, marked


def n1_family_poset(
    k: int, m: tuple[int, ...], attachment: str
) -> MarkedPoset:
    """Type-A marked poset plus one extra unmarked element.

    The position of the extra element is not pinned down a priori;
    ``attachment`` selects one of the structurally distinct candidates,
    and `n1_report` determines experimentally which of them reproduces
    `n1_formula`.
    """
    if attachment not in n1_attachments:
        raise ValueError(f"unknown attachment {attachment!r}")
    if len(m) != k - 1:
        raise ValueError("coefficient vector must have length k-1")
    if k == 1:
        # No roots at all: every candidate degenerates to a single element
        # pinched between two zero markings.
        return MarkedPoset(
            ("w", ("t", 1), ("u", 0)),
            ((("t", 1), "w"), ("w", ("u", 0))),
            ((("t", 1), 0), (("u", 0), 0)),
        )
    elements, covers, marked = _type_a_base(k, m)

    def insert_between(a, b):
        covers.remove((a, b))
        covers.append((a, "w"))
        covers.append(("w", b))

    if attachment == "below_first":
        insert_between(("t", 1), ("a", 1, 1))
    elif attachment == "above_first":
        insert_between(("a", 1, 1), ("u", 1))
    elif attachment == "parallel_first":
        covers.append((("t", 1), "w"))
        covers.append(("w", ("u", 1)))
    elif attachment == "below_last":
        insert_between(("t", k - 1), ("a", k - 1, k - 1))
    elif attachment == "above_last":
        insert_between(("a", k - 1, k - 1), ("u", k - 1))
    else:  # row1_end: hang w off the end of the first row
        covers.append((("a", 1, k - 1), "w"))
        covers.append(("w", ("u", k - 1)))
    elements = elements + ["w"] + [e for e, _ in marked]
    return MarkedPoset(tuple(elements), tuple(covers), tuple(marked))


def n1_report(max_k: int, max_coeff: int) -> dict:
    """Compare chain-point counts with the product formula per attachment.

    Sweeps 1 <= k <= max_k and all coefficient vectors with entries up to
    max_coeff; an attachment fails at its first mismatch, which is recorded.
    """
    results = []
    for attachment in n1_attachments:
        checked = 0
        failure = None
        for k in range(1, max_k + 1):
            for m in product(range(max_coeff + 1), repeat=k - 1):
                expected = n1_formula(k, m)
                got = len(chain_points(n1_family_poset(k, m, attachment)))
                checked += 1
                if got != expected:
                    failure = {
                        "k": k,
                        "m": list(m),
                        "count": got,
                        "formula": expected,
                    }
                    break
            if failure:
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
