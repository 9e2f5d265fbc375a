"""Root posets and symplectic Dyck paths, even and odd families.

The even family of rank n is the positive-root combinatorics of sp_{2n},
the odd family that of sp_{2n+1}.  Labels are (row, col) positions with
columns drawn from the alphabet 1 < 2 < ... < n < nbar < ... < 1bar; the
odd family has the extra unbarred column n in every row, the even family
stops its unbarred columns at n - 1.  Covers run rightward inside a row
(consecutive valid columns) and straight down one row at a fixed column.

Roots carry two coordinate systems: alpha-coordinates over the basis
(alpha_1, ..., alpha_n, alphatilde_{n+1}) and eps-coordinates over
(eps_1, ..., eps_n, eps_0), related by alpha_k = eps_k - eps_{k+1} for
k < n, alpha_n = 2 eps_n and alphatilde_{n+1} = eps_0 + eps_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

EVEN = "even"
ODD = "odd"

Weight = tuple[int, ...]        # eps-coordinates (eps_1, ..., eps_n, eps_0)
LatticePoint = tuple[int, ...]  # one value per root, canonical order


def _check_family(family: str) -> None:
    if family not in (EVEN, ODD):
        raise ValueError(f"unknown family {family!r}")


def check_weight(family: str, n: int, weight) -> tuple[int, ...]:
    """Validate fundamental coordinates m_1, ..., m_n and return them as a tuple."""
    _check_family(family)
    weight = tuple(weight)
    if len(weight) != n:
        raise ValueError("weight length must equal the rank")
    if any(m < 0 for m in weight):
        raise ValueError("fundamental coordinates must be nonnegative")
    return weight


class RootLabel(NamedTuple):
    """Poset position (row, col); barred marks the second half of the alphabet."""

    row: int
    col: int
    barred: bool = False

    def col_pos(self, n: int) -> int:
        """Position of the column in the alphabet 1 < ... < n < nbar < ... < 1bar."""
        return self.col if not self.barred else 2 * n + 1 - self.col

    def col_name(self) -> str:
        return f"{self.col}bar" if self.barred else str(self.col)

    def __str__(self) -> str:
        return f"({self.row},{self.col_name()})"

    def to_json(self) -> dict:
        return {"row": self.row, "col": self.col_name()}


class Root(NamedTuple):
    label: RootLabel
    alpha: tuple[int, ...]
    eps: tuple[int, ...]


def simple_roots_eps(n: int) -> tuple[tuple[int, ...], ...]:
    """eps-vectors of alpha_1, ..., alpha_n, alphatilde_{n+1}."""
    out = []
    for k in range(1, n):
        v = [0] * (n + 1)
        v[k - 1], v[k] = 1, -1
        out.append(tuple(v))
    v = [0] * (n + 1)
    v[n - 1] = 2
    out.append(tuple(v))                      # alpha_n = 2 eps_n
    v = [0] * (n + 1)
    v[n - 1], v[n] = 1, 1
    out.append(tuple(v))                      # alphatilde = eps_0 + eps_n
    return tuple(out)


def _alpha_coords(label: RootLabel, n: int) -> tuple[int, ...]:
    i, j, barred = label
    v = [0] * (n + 1)
    if not barred and j < n:
        for k in range(i, j + 1):
            v[k - 1] += 1
    elif not barred:
        # special root alpha_{i,n} = alpha_i + ... + alpha_n - alphatilde_{n+1}
        for k in range(i, n + 1):
            v[k - 1] += 1
        v[n] = -1
    else:
        for k in range(i, n + 1):
            v[k - 1] += 1
        for k in range(j, n):
            v[k - 1] += 1
    return tuple(v)


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


@dataclass(frozen=True)
class RootPoset:
    """Immutable root poset; covers are index pairs into `roots`."""

    family: str
    n: int
    roots: tuple[Root, ...]
    covers: tuple[tuple[int, int], ...]
    _index: dict = field(init=False, repr=False, compare=False)
    _succ: tuple = field(init=False, repr=False, compare=False)
    _pred: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {r.label: k for k, r in enumerate(self.roots)}
        succ = [[] for _ in self.roots]
        pred = [[] for _ in self.roots]
        for a, b in self.covers:
            succ[a].append(b)
            pred[b].append(a)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_succ", tuple(tuple(s) for s in succ))
        object.__setattr__(self, "_pred", tuple(tuple(p) for p in pred))

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
    frozen, so every caller shares one instance per (family, n).
    """
    _check_family(family)
    if n < 1:
        raise ValueError("rank must be >= 1")
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
    roots = tuple(
        Root(lab, _alpha_coords(lab, n), _eps_coords(lab, n)) for lab in labels
    )
    return RootPoset(family, n, roots, tuple(covers))


@dataclass(frozen=True)
class DyckPath:
    """Saturated chain from a row-initial element to a diagonal or barred end."""

    family: str
    n: int
    labels: tuple[RootLabel, ...]

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


def _start_labels(family: str, n: int) -> list[RootLabel]:
    if family == ODD:
        return [RootLabel(i, i, False) for i in range(1, n + 1)]
    starts = [RootLabel(i, i, False) for i in range(1, n)]
    starts.append(RootLabel(n, n, True))
    return starts


def dyck_paths(poset: RootPoset) -> tuple[DyckPath, ...]:
    """All symplectic Dyck paths, in canonical order.

    A path starts at a row-initial element (alpha_{i,i}, or alpha_{n,nbar}
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

    for start in _start_labels(poset.family, poset.n):
        extend(poset.index(start))
    found.sort()
    return tuple(
        DyckPath(poset.family, poset.n, tuple(poset.roots[k].label for k in ix))
        for ix in found
    )


def path_bound(path: DyckPath, weight: tuple[int, ...]) -> int:
    """Right-hand side of the path's inequality for fundamental coordinates m.

    Diagonal end alpha_{j,j} gives m_i + ... + m_j, barred end alpha_{j,jbar}
    gives m_i + ... + m_n, where i is the start row.
    """
    weight = check_weight(path.family, path.n, weight)
    i = path.start_row
    if path.end_class == "diagonal":
        return sum(weight[i - 1 : path.end.col])
    return sum(weight[i - 1 :])


class Marking(NamedTuple):
    """A marked element of the FFLV marked poset and the root it is attached to."""

    element: tuple      # ("t", i), ("u", j) or ("v", j)
    value: int
    root: RootLabel
    below: bool         # True for t_i, which sits below its root


def fflv_markings(family: str, n: int, weight: tuple[int, ...]) -> tuple[Marking, ...]:
    """Cumulative-sum markings that realize the polytope as a marked chain polytope.

    Below the initial root of row i sits t_i with marking m_1 + ... + m_{i-1};
    above each diagonal root (j,j) sits u_j with marking m_1 + ... + m_j;
    above each barred root (j,jbar) sits v_j with marking m_1 + ... + m_n.
    The marking differences along a Dyck path telescope to its path bound.
    """
    diag_max = n if family == ODD else n - 1
    total = sum(weight)
    marks = [
        Marking(("t", i), sum(weight[: i - 1]), start, True)
        for i, start in enumerate(_start_labels(family, n), start=1)
    ]
    marks += [
        Marking(("u", j), sum(weight[:j]), RootLabel(j, j, False), False)
        for j in range(1, diag_max + 1)
    ]
    marks += [
        Marking(("v", j), total, RootLabel(j, j, True), False)
        for j in range(1, n + 1)
    ]
    return tuple(marks)


def wt_deg(poset: RootPoset, s: LatticePoint) -> tuple[Weight, int]:
    """Weight sum(s_a * a) in eps-coordinates and total degree sum(s_a)."""
    if len(s) != len(poset.roots):
        raise ValueError("point length must match the number of roots")
    wt = [0] * (poset.n + 1)
    for c, root in zip(s, poset.roots):
        if c:
            for k, e in enumerate(root.eps):
                wt[k] += c * e
    return tuple(wt), sum(s)


def fundamental_to_eps(weight: tuple[int, ...]) -> Weight:
    """eps-coordinates (eps_1, ..., eps_n, eps_0) of sum m_i omega_i."""
    n = len(weight)
    return tuple(sum(weight[i:]) for i in range(n)) + (0,)


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
