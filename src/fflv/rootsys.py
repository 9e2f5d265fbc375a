"""Root posets and symplectic Dyck paths, even and odd families.

The even family of rank n is the positive-root combinatorics of sp_{2n},
the odd family that of sp_{2n+1}.  Labels are (row, col) positions with
columns drawn from the alphabet 1 < 2 < ... < n < nbar < ... < 1bar; the
odd family has the extra unbarred column n in every row, the even family
stops its unbarred columns at n - 1.  Covers run rightward inside a row
(consecutive valid columns) and straight down one row at a fixed column.

Roots carry eps-coordinates over (eps_1, ..., eps_n, eps_0).
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import lru_cache

EVEN = "even"
ODD = "odd"

Weight = tuple[int, ...]        # eps-coordinates (eps_1, ..., eps_n, eps_0)
LatticePoint = tuple[int, ...]  # one value per root, canonical order


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its constructor arguments, then its derived ``_...``
    fields, in ``__slots__``; its ``__init__`` computes the derived values
    and ends in ``super().__init__(*arguments, **derived)``, the one place a
    field is set.  Equality, hash and repr cover the constructor arguments,
    or the names in ``_compared`` where the subclass sets it; copies and
    pickles are rebuilt through the constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        cls._compared = cls.__dict__.get("_compared", cls._fields)
        # An attrgetter is not bound to the instance: call it as _key(obj).
        cls._key = operator.attrgetter(*cls._compared)

    def __init__(self, *args, **derived) -> None:
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} "
                            f"arguments, got {len(args)}")
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = (f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({', '.join(args)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _check_family_rank(family: str, n: int) -> None:
    if family not in (EVEN, ODD):
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("rank must be >= 1")


def check_weight(family: str, n: int, weight) -> tuple[int, ...]:
    """Validate family, rank n >= 1 and integers m_1, ..., m_n; return them as a tuple."""
    _check_family_rank(family, n)
    weight = check_ints(weight, "fundamental coordinate")
    if len(weight) != n:
        raise ValueError("weight length must equal the rank")
    if any(m < 0 for m in weight):
        raise ValueError("fundamental coordinates must be nonnegative")
    return weight


def check_ints(values, what: str) -> tuple[int, ...]:
    """The values read with `operator.index`; the first one that is not an
    integer raises TypeError naming it and its position."""
    out = []
    for k, x in enumerate(values):
        try:
            out.append(operator.index(x))
        except TypeError:
            raise TypeError(f"{what} {x!r} at position {k} is not an integer") from None
    return tuple(out)


class RootLabel(namedtuple("RootLabel", "row col barred", defaults=(False,))):
    """Poset position (row, col); barred marks the second half of the alphabet."""

    __slots__ = ()

    def col_name(self) -> str:
        return f"{self.col}bar" if self.barred else str(self.col)

    def __str__(self) -> str:
        return f"({self.row},{self.col_name()})"

    def to_json(self) -> dict:
        return {"row": self.row, "col": self.col_name()}


class Root(namedtuple("Root", "label eps")):
    """A root's label and its eps-coordinates."""

    __slots__ = ()


class Counterexample(namedtuple("Counterexample", "kind point")):
    """A failed check: its kind and the point (or monomial) at fault."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"kind": self.kind, "point": list(self.point)}


def _eps_coords(label: RootLabel, n: int) -> tuple[int, ...]:
    i, j, barred = label
    v = [0] * (n + 1)
    if not barred and j < n:
        v[i - 1], v[j] = 1, -1            # eps_i - eps_{j+1}
    elif not barred:
        v[i - 1], v[n] = 1, -1            # eps_i - eps_0
    else:
        v[i - 1] += 1                     # eps_i + eps_j
        v[j - 1] += 1
    return tuple(v)


def _family_labels(family: str, n: int) -> list[list[RootLabel]]:
    """Labels grouped by row, columns ascending in the alphabet."""
    unbarred_max = n if family == ODD else n - 1
    rows = []
    for i in range(1, n + 1):
        row = [RootLabel(i, j, False) for j in range(i, unbarred_max + 1)]
        row += [RootLabel(i, j, True) for j in range(n, i - 1, -1)]
        rows.append(row)
    return rows


class RootPoset(_Frozen):
    """Immutable root poset; covers are index pairs into `roots`."""

    __slots__ = ("family", "n", "roots", "covers", "_index", "_succ", "_pred")

    def __init__(self, family: str, n: int, roots: tuple[Root, ...],
                 covers: tuple[tuple[int, int], ...]) -> None:
        index = {r.label: k for k, r in enumerate(roots)}
        succ = [[] for _ in roots]
        pred = [[] for _ in roots]
        for a, b in covers:
            succ[a].append(b)
            pred[b].append(a)
        super().__init__(family, n, roots, covers, _index=index,
                         _succ=tuple(map(tuple, succ)), _pred=tuple(map(tuple, pred)))

    def __len__(self) -> int:
        return len(self.roots)

    def index(self, label: RootLabel) -> int:
        return self._index[label]

    def __contains__(self, label: RootLabel) -> bool:
        return label in self._index

    def successors(self, k: int) -> tuple[int, ...]:
        return self._succ[k]

    def predecessors(self, k: int) -> tuple[int, ...]:
        return self._pred[k]

    def labels(self) -> tuple[RootLabel, ...]:
        return tuple(r.label for r in self.roots)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "elements": [r.label.to_json() for r in self.roots],
            "covers": [list(c) for c in self.covers],
        }


def build_poset(family: str, n: int) -> RootPoset:
    """Root poset of the given family and rank n >= 1.

    The arguments are validated before the cache lookup; the poset is
    immutable, so every caller shares one instance per (family, n).
    """
    _check_family_rank(family, n)
    return _build_poset(family, n)


@lru_cache(maxsize=64)
def _build_poset(family: str, n: int) -> RootPoset:
    rows = _family_labels(family, n)
    labels = [lab for row in rows for lab in row]
    index = {lab: k for k, lab in enumerate(labels)}
    covers: list[tuple[int, int]] = []
    for row in rows:
        for a, b in zip(row, row[1:]):
            covers.append((index[a], index[b]))
    for lab in labels:
        below = RootLabel(lab.row + 1, lab.col, lab.barred)
        if below in index:
            covers.append((index[lab], index[below]))
    covers.sort()
    roots = tuple(Root(lab, _eps_coords(lab, n)) for lab in labels)
    return RootPoset(family, n, roots, tuple(covers))


class DyckPath(_Frozen):
    """Saturated chain from a row-initial element to a diagonal or barred end."""

    __slots__ = ("family", "n", "labels")

    def __init__(self, family: str, n: int, labels: tuple[RootLabel, ...]) -> None:
        super().__init__(family, n, labels)

    @property
    def start(self) -> RootLabel:
        return self.labels[0]

    @property
    def end(self) -> RootLabel:
        return self.labels[-1]

    @property
    def start_row(self) -> int:
        return self.labels[0].row

    @property
    def end_class(self) -> str:
        return "barred" if self.end.barred else "diagonal"

    def __len__(self) -> int:
        return len(self.labels)

    def to_json(self) -> list[dict]:
        return [lab.to_json() for lab in self.labels]


def dyck_paths(poset: RootPoset) -> tuple[DyckPath, ...]:
    """All symplectic Dyck paths, in canonical order.

    A path starts at the first root of a row (alpha_{i,i}, or alpha_{n,nbar}
    in the even family's last row) and ends at any alpha_{j,j} or
    alpha_{j,jbar} it reaches; single-element paths are allowed.
    """
    found: list[tuple[int, ...]] = []
    chain: list[int] = []

    def extend(k: int) -> None:
        chain.append(k)
        lab = poset.roots[k].label
        if lab.row == lab.col:
            found.append(tuple(chain))
        for nxt in poset.successors(k):
            extend(nxt)
        chain.pop()

    row = 0
    for k, root in enumerate(poset.roots):
        if root.label.row != row:           # the first root of its row
            row = root.label.row
            extend(k)
    # Row starts ascend and `_build_poset` sorts the covers, so successors
    # ascend too: the depth-first search emits the paths in sorted order.
    return tuple(
        DyckPath(poset.family, poset.n, tuple(poset.roots[k].label for k in ix))
        for ix in found
    )


def path_bound(path: DyckPath, weight: tuple[int, ...]) -> int:
    """Right-hand side of the path's inequality for fundamental coordinates m.

    Diagonal end alpha_{j,j} gives m_i + ... + m_j, barred end alpha_{j,jbar}
    gives m_i + ... + m_n, where i is the start row.
    """
    return _path_bound(path, check_weight(path.family, path.n, weight))


def _path_bound(path: DyckPath, weight: tuple[int, ...]) -> int:
    """`path_bound` for a weight that `check_weight` has already read."""
    i = path.start_row
    if path.end_class == "diagonal":
        return sum(weight[i - 1 : path.end.col])
    return sum(weight[i - 1 :])


def wt_deg(poset: RootPoset, s: LatticePoint) -> tuple[Weight, int]:
    """Weight sum(s_a * a) in eps-coordinates and total degree sum(s_a); raises
    for a wrong length, then for the first entry that is not an integer."""
    if len(s) != len(poset.roots):
        raise ValueError("point length must match the number of roots")
    check_ints(s, "coordinate")
    wt = [0] * (poset.n + 1)
    for c, root in zip(s, poset.roots):
        if c:
            for k, e in enumerate(root.eps):
                wt[k] += c * e
    return tuple(wt), sum(s)


def fundamental_to_eps(weight: tuple[int, ...]) -> Weight:
    """eps-coordinates (eps_1, ..., eps_n, eps_0) of sum m_i omega_i."""
    return partition_from_fundamental(weight) + (0,)


def partition_from_fundamental(weight: tuple[int, ...]) -> tuple[int, ...]:
    """Partition (lambda_1 >= ... >= lambda_n) with lambda_i = m_i + ... + m_n."""
    n = len(weight)
    return tuple(sum(weight[i:]) for i in range(n))


def fundamental_from_partition(part: tuple[int, ...]) -> tuple[int, ...]:
    padded = tuple(part) + (0,)
    m = tuple(padded[i] - padded[i + 1] for i in range(len(part)))
    if any(x < 0 for x in m):
        raise ValueError("not weakly decreasing")
    return m
