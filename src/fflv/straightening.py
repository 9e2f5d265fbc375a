"""Derivation operators and leading-term verification of the straightening law.

Monomials in the generators f_alpha of the odd family are exponent tuples in
the canonical root order.  A violating exponent vector supported on a single
path from alpha_{1,1} to a barred end is straightened by applying two words
of derivations to a pure power of f_{1,1bar}: each derivation either lowers
one generator to another one (root subtraction, unit coefficient) or acts by
the special bottom-row derivation whose coefficients come from the matrix
realization.  The result is a polynomial whose greatest monomial under the
order defined here is the violating vector itself; `verify` checks exactly
that and nothing stronger, since the leading coefficient has no closed form.

What depends only on the rank (labels, row slices, column variables, the
packing constants) is built once per rank, and what depends only on the
path (the variables off it and the operator words, each factor with its
largest packed shift and the variables whose exponent sum is its power)
once per path.  Inside, a monomial is packed into one integer so that,
within one degree, integer order is the straightening order: byte k holds
exponent k, so the last variable is most significant, and above the
exponents one byte per row r holds 255 minus the row-r sum, row n most
significant; one table of units per rank defines that layout.  A derivation
step is one integer addition, and `verify` passes when the packed violating
vector is the `max` of the straightened polynomial, which has a single
degree.  Derivations keep the total degree, so a degree of at most 255
proves that every byte stays in [0, 255] and none carries; a larger degree
raises ArithmeticError.  The public methods take and return exponent
tuples, and `_degree` checks every tuple that enters the packed engine.

`verify` drops each term below the floor, packed s minus the largest
shifts still to be applied, since it can only end below s (see `_derive`).
`straighten` returns every term, so it prunes nothing.

`verify_many` verifies a batch of vectors and shares what they share: the
operator words depend only on the row of the path's end, so vectors of one
degree on paths ending in one row share every prefix of factor powers, and
each prefix is derived once, in a trie that holds one degree at a time and
does not outlive the call.  One prefix serves vectors with different
leads, so the trie is not pruned.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import lru_cache
from operator import index as as_int, mul
from types import MappingProxyType

from .rootsys import Counterexample, RootLabel, build_poset, check_weight

# A packed monomial holds each exponent, and 255 minus each row sum, in a byte.
DEGREE_LIMIT = 255


class DerivationId(namedtuple("DerivationId", "kind root", defaults=(None,))):
    """Subtraction of an even-family positive root (kind "root", root a
    RootLabel, checked by every constructor) or the special derivation (kind
    "special", root None: bracket with the matrix unit at the bottom middle)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # _replace checks too

    def __new__(cls, kind, root=None):
        if kind == "root" and root is not None and not isinstance(root, RootLabel):
            raise ValueError(f"root {root!r} of a derivation is not a RootLabel")
        return super().__new__(cls, kind, root)

    def __str__(self) -> str:
        return "d_special" if self.kind == "special" else f"d{self.root}"


def _matrix(label: RootLabel, n: int) -> dict[tuple[int, int], int]:
    """Lowering generator as a (2n+1)x(2n+1) matrix, stored sparsely.

    Rows/columns 1..n carry eps_1..eps_n, rows n+1..2n carry -eps_1..-eps_n,
    row 2n+1 is the isotropic direction.
    """
    i, j = label.row, label.col
    if not label.barred:
        if j == n:
            return {(2 * n + 1, i): 1}
        return {(j + 1, i): 1, (n + i, n + j + 1): -1}
    if i == j:
        return {(n + i, i): 1}
    return {(n + i, j): 1, (n + j, i): 1}


def _bracket(x: dict, y: dict) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (a, b), u in x.items():
        for (c, d), v in y.items():
            if b == c:
                out[a, d] = out.get((a, d), 0) + u * v
            if d == a:
                out[c, b] = out.get((c, b), 0) - u * v
    return {pos: c for pos, c in out.items() if c}


def _derivation_rules(n: int, op: DerivationId) -> dict[int, tuple[int, int]]:
    """Action of op on the rank-n generators: variable index -> (target
    index, coefficient).  A root that is no even-family positive root of
    rank n, and a special derivation that carries a root, raise ValueError."""
    odd = build_poset("odd", n)
    rules: dict[int, tuple[int, int]] = {}
    if op.kind == "root":
        _root_op(n, op.root)
        even = build_poset("even", n)
        alpha = even.roots[even.index(op.root)].eps
        eps_to_var = {r.eps: k for k, r in enumerate(odd.roots)}
        for k, r in enumerate(odd.roots):
            tgt = eps_to_var.get(tuple(a - b for a, b in zip(r.eps, alpha)))
            if tgt is not None:
                rules[k] = (tgt, 1)
    elif op.kind == "special":
        if op.root is not None:
            raise ValueError(f"the special derivation carries no root, got {op.root}")
        # A generator's anchor is the first entry of its matrix, a position
        # no other generator occupies; the lowest-index anchor hit wins.
        labels = odd.labels()
        anchor = {next(iter(_matrix(lab, n))): k for k, lab in enumerate(labels)}
        x = {(2 * n + 1, n + 1): 1}
        for k, lab in enumerate(labels):
            br = _bracket(x, _matrix(lab, n))
            hits = [(anchor[pos], c) for pos, c in br.items() if pos in anchor]
            if hits:
                rules[k] = min(hits)
    else:
        raise ValueError(f"unknown derivation kind {op.kind!r}")
    return rules


@lru_cache(maxsize=1024)
def _packed_rules(n: int, op: DerivationId) -> tuple[tuple[int, int, int], ...]:
    """op's rules on packed monomials: (source k, shift, coefficient), where
    adding the shift moves one unit from k to the rule's target."""
    units = _rank_tables(n).units
    return tuple(
        (k, units[tgt] - units[k], c) for k, (tgt, c) in _derivation_rules(n, op).items()
    )


def _derive(poly: dict[int, int], factors, width: int, lead: int | None = None) -> dict[int, int]:
    """Apply each (packed rules, largest shift, power) factor power times,
    first factor first, to a polynomial of packed monomials of width bytes
    and degree <= DEGREE_LIMIT.  The largest shift is read only with lead.

    One application is the Leibniz rule: variable k with exponent e lowered
    to its target contributes e times the rule's coefficient, and a term
    whose coefficient sums to 0 is dropped.

    With lead, a packed monomial, only the terms at or above lead are
    kept.  A term ends as its packed value plus the shifts still to be
    applied, so it ends below lead when it lies below the floor, lead minus
    the largest shifts still to come; after each factor such terms are
    dropped.  A dropped term's products lie below every later floor, so the
    terms at or above lead keep their coefficients and their order.
    """
    if lead is not None:
        floor = lead - sum(top * power for _, top, power in factors)
    for rules, top, power in factors:
        for _ in range(power):
            out: dict[int, int] = {}
            get = out.get
            for mono, coeff in poly.items():
                digits = mono.to_bytes(width, "little")
                for k, shift, c in rules:
                    e = digits[k]
                    if e:
                        key = mono + shift
                        val = get(key, 0) + coeff * c * e
                        if val:
                            out[key] = val
                        else:
                            out.pop(key, None)
            poly = out
        if lead is not None and power:
            floor += top * power
            poly = {key: val for key, val in poly.items() if key >= floor}
    return poly


def _degree(s, nvars: int, noun: str) -> int:
    """The degree of the exponent tuple s; raises for a wrong length, then
    for the first entry that is not an integer, then for the first negative."""
    if len(s) != nvars:
        raise ValueError(f"{noun} has the wrong shape")
    for k, x in enumerate(s):
        try:
            as_int(x)
        except TypeError:
            raise TypeError(f"exponent {x!r} at position {k} is not an integer") from None
    for k, x in enumerate(s):
        if x < 0:
            raise ValueError(f"exponent {x!r} at position {k} is negative")
    return sum(s)


def _degree_error(degree: int) -> ArithmeticError:
    return ArithmeticError(
        f"total degree {degree} exceeds {DEGREE_LIMIT}, the largest a "
        "byte-packed monomial holds"
    )


class _RankTables(namedtuple(
    "_RankTables", "poset labels row_slices col_vars start_var width empty units"
)):
    """What depends only on the rank.  start_var is f_{1,1bar}, whose pure
    power every straightening starts from.  A packed monomial has width
    bytes: the exponents, byte k for variable k, then one byte per row r
    holding 255 minus the row-r sum, row n most significant.  empty is the
    packed monomial 1, every row byte 255; units[k] is the packed change of
    one more unit of variable k: its exponent byte up, its row byte down.
    These two define the layout: s packs to empty + sum of s[k] * units[k]."""

    __slots__ = ()


@lru_cache(maxsize=64)
def _rank_tables(n: int) -> _RankTables:
    poset = build_poset("odd", n)
    labels = poset.labels()
    # Canonical order is row-major, so each row's variables form a slice.
    rows = [lab.row for lab in labels]
    row_slices = tuple(
        slice(bisect_left(rows, i), bisect_right(rows, i)) for i in range(1, n + 1)
    )
    col_vars: dict[tuple[int, bool], tuple[int, ...]] = {}
    for k, lab in enumerate(labels):
        col_vars[lab.col, lab.barred] = col_vars.get((lab.col, lab.barred), ()) + (k,)
    nvars = len(labels)
    row_place = [1 << 8 * (nvars + i) for i in range(n)]
    return _RankTables(
        poset, labels, row_slices, MappingProxyType(col_vars),
        poset.index(RootLabel(1, 1, True)), nvars + n, 255 * sum(row_place),
        tuple((1 << 8 * k) - row_place[r - 1] for k, r in enumerate(rows)),
    )


def _root_op(n: int, label: RootLabel) -> DerivationId:
    if label not in build_poset("even", n):
        raise ValueError(f"{label} is not an even-family positive root of rank {n}")
    return DerivationId("root", label)


@lru_cache(maxsize=4096)
def _path_plan(n: int, labels: tuple[RootLabel, ...]):
    """The two operator words for vectors on a barred path of rank n, as
    (off, factors, split).  off holds the variables not on the path, in
    order.  The factors of both words come in application order,
    each as (op, packed rules, their largest shift, the variables whose
    exponent sum is its power); factors[:split] is the first word, the
    rest the second.

    With i the row of the path's end, in display order (apply right to
    left): the first word is the prefix d(1,i-1)^{s_{.,ibar}+s_{i,.}} (absent
    for i = 1), then d(j,jbar)^{s_{.,j-1}} for j = i+1..n, then the special
    derivation to the power s_{.,n} followed by d(1,j)^{s_{.,j}+s_{.,(j+1)bar}}
    for j = n-1..i, then d(1,kbar)^{s_{.,k-1}} for k = i..2.  The second word
    is d(1,j)^{s_{j+1,.}} for j = 1..i-2.  Raises ValueError unless the
    labels are a chain of covers in the rank-n odd poset from (1,1) to
    some (i,ibar).
    """
    if labels[0] != RootLabel(1, 1, False):
        raise ValueError("path must start at the top-left diagonal root")
    if not labels[-1].barred:
        raise ValueError("path must end at a barred root")
    tables = _rank_tables(n)
    poset = tables.poset
    for prev, lab in zip(labels, labels[1:]):
        if lab not in poset:
            raise ValueError(f"path label {lab} is not a root of the rank-{n} odd poset")
        if poset.index(lab) not in poset.successors(poset.index(prev)):
            raise ValueError(f"path label {lab} does not cover {prev}")
    i = labels[-1].row
    if labels[-1].col != i:
        raise ValueError(f"path must end at a barred diagonal root, not at {labels[-1]}")
    index = range(len(tables.labels))

    def row(r: int) -> tuple[int, ...]:
        return tuple(index[tables.row_slices[r - 1]])

    def col(c: int, barred: bool = False) -> tuple[int, ...]:
        return tables.col_vars.get((c, barred), ())

    def d(row: int, column: int, barred: bool = False) -> DerivationId:
        return _root_op(n, RootLabel(row, column, barred))

    delta1 = [(d(1, i - 1), col(i, True) + row(i))] if i >= 2 else []
    delta1 += [(d(j, j, True), col(j - 1)) for j in range(i + 1, n + 1)]
    delta1.append((DerivationId("special"), col(n)))
    delta1 += [(d(1, j), col(j) + col(j + 1, True)) for j in range(n - 1, i - 1, -1)]
    delta1 += [(d(1, k, True), col(k - 1)) for k in range(i, 1, -1)]
    delta2 = [(d(1, j), row(j + 1)) for j in range(1, i - 1)]
    factors = []
    for op, power_vars in delta1[::-1] + delta2[::-1]:
        rules = _packed_rules(n, op)
        top = max((shift for _, shift, _ in rules), default=0)
        factors.append((op, rules, top, power_vars))
    on_path = {poset.index(lab) for lab in labels}
    off = tuple(k for k in index if k not in on_path)
    return off, tuple(factors), len(delta1)


class Straightener:
    """Symbolic engine for one odd-family rank.

    Monomials are exponent tuples over the odd roots in canonical order;
    polynomials are dicts from monomials to integer coefficients.
    """

    def __init__(self, n: int):
        self._tables = _rank_tables(n)
        self.poset = self._tables.poset
        self.n = n
        self.labels = self._tables.labels
        self.nvars = len(self.labels)

    # -- monomial order ----------------------------------------------------

    def order_key(self, s: tuple[int, ...]) -> tuple:
        """Sort key of the straightening order: s comes before t exactly when
        order_key(s) > order_key(t).

        Larger total degree wins; on equal degree the smaller reversed row-sum
        vector (row n first) wins; ties break by exponents along the variable
        order, in which all of row n beats row n-1 and so on and within a row
        the rightmost column of the alphabet is largest: the reverse of the
        canonical order.  The key holds every exponent, so it is injective.
        A malformed s raises through `_degree`, as at every entry point.
        """
        return (
            _degree(s, self.nvars, "exponent vector"),
            tuple(-sum(s[r]) for r in reversed(self._tables.row_slices)),
            tuple(s[::-1]),
        )

    # -- derivations -------------------------------------------------------

    def root_derivation(self, label: RootLabel) -> DerivationId:
        return _root_op(self.n, label)

    def special_derivation(self) -> DerivationId:
        return DerivationId("special")

    def derivation_rules(self, op: DerivationId):
        """Action on generators: variable index -> (target index, coefficient),
        as a fresh dict."""
        return _derivation_rules(self.n, op)

    def _pack(self, mono) -> int:
        """The packed form of an exponent tuple of nonnegative integers of
        degree <= DEGREE_LIMIT; every caller validates the tuple first."""
        return sum(map(mul, mono, self._tables.units), self._tables.empty)

    def _unpack(self, mono: int) -> tuple[int, ...]:
        return tuple(mono.to_bytes(self._tables.width, "little")[: self.nvars])

    def apply_derivation(self, op: DerivationId, poly: dict) -> dict:
        """One application, extended to products by the Leibniz rule."""
        return self.apply_word(((op, 1),), poly)

    def apply_word(self, word, poly: dict) -> dict:
        """Apply a displayed operator word, rightmost factor first.  Each
        power is checked first: one that is not an integer raises TypeError
        and a negative one ValueError, each naming its factor.  Zero terms
        are dropped before a monomial's shape, entries and degree are
        checked; an entry that is not an integer raises TypeError and a
        negative one ValueError, each naming its position."""
        factors = []
        for j, (op, power) in enumerate(word):
            try:
                power = as_int(power)
            except TypeError:
                raise TypeError(
                    f"power {power!r} of word factor {j} is not an integer") from None
            if power < 0:
                raise ValueError(f"power {power} of word factor {j} is negative")
            factors.append((_packed_rules(self.n, op), 0, power))
        factors.reverse()
        packed = {}
        for mono, coeff in poly.items():
            if not coeff:
                continue
            degree = _degree(mono, self.nvars, "monomial")
            if degree > DEGREE_LIMIT:
                raise _degree_error(degree)
            packed[self._pack(mono)] = coeff
        out = _derive(packed, factors, self._tables.width)
        return {self._unpack(mono): c for mono, c in out.items()}

    # -- straightening -----------------------------------------------------

    def _check_path_point(self, s: tuple[int, ...], path):
        """Validate s and path; return the path's word plan."""
        if path.family != "odd" or path.n != self.n:
            raise ValueError("path belongs to a different poset")
        _degree(s, self.nvars, "exponent vector")
        plan = _path_plan(self.n, path.labels)
        if any(map(s.__getitem__, plan[0])):
            raise ValueError("exponent vector is not supported on the path")
        return plan

    def build_delta_ops(self, s: tuple[int, ...], path):
        """The two operator words for a violating vector on a barred path.

        Words are returned in display order (apply right to left); factors
        with zero exponent are omitted.  The words are those of `_path_plan`.
        """
        _, factors, split = self._check_path_point(s, path)
        get = s.__getitem__
        words = []
        for word in (factors[:split], factors[split:]):
            powers = ((op, sum(map(get, ks))) for op, _, _, ks in reversed(word))
            words.append(tuple(factor for factor in powers if factor[1]))
        return tuple(words)

    def _checked_factors(self, weight: tuple[int, ...], s: tuple[int, ...], path):
        """Validate a straightening case; return its degree and its
        (packed rules, largest shift, power) factors in application order."""
        _, plan_factors, _ = self._check_path_point(s, path)
        weight = check_weight("odd", self.n, weight)
        sigma = sum(s)
        if sigma < sum(weight) + 1:
            raise ValueError("exponent vector does not violate the path bound")
        if sigma > DEGREE_LIMIT:
            raise _degree_error(sigma)
        get = s.__getitem__
        return sigma, [(rules, top, sum(map(get, ks))) for _, rules, top, ks in plan_factors]

    def _start(self, sigma: int) -> int:
        """The packed pure power f_{1,1bar}^sigma."""
        tables = self._tables
        return tables.empty + sigma * tables.units[tables.start_var]

    def _straighten_packed(self, weight: tuple[int, ...], s: tuple[int, ...], path,
                           prune: bool = False):
        """`straighten` on packed monomials: {packed monomial: coefficient}.
        With prune, only the terms at or above s, each with its coefficient
        and in its order in the full polynomial; s is packed only once it
        is validated."""
        sigma, factors = self._checked_factors(weight, s, path)
        lead = self._pack(s) if prune else None
        return _derive({self._start(sigma): 1}, factors, self._tables.width, lead)

    def straighten(self, weight: tuple[int, ...], s: tuple[int, ...], path) -> dict:
        """Apply both operator words to the pure power of f_{1,1bar}."""
        poly = self._straighten_packed(weight, s, path)
        return {self._unpack(mono): c for mono, c in poly.items()}

    def _check_lead(self, poly: dict[int, int], s: tuple[int, ...]) -> Counterexample | None:
        """None when f^s leads the packed polynomial poly, of s's degree,
        else the failure: a missing or zero lead, or the first term in term
        order that is greater than s."""
        lead = self._pack(s)
        if not poly.get(lead):
            return Counterexample("leading_term_missing", s)
        if max(poly) == lead:
            return None
        first_above = next(t for t in poly if t > lead)
        return Counterexample("term_not_smaller", self._unpack(first_above))

    def verify(self, weight: tuple[int, ...], s: tuple[int, ...], path) -> Counterexample | None:
        """Check f^s leads the straightened polynomial.

        Passes when s has a nonzero coefficient and every other monomial is
        strictly smaller in the straightening order.  All monomials share
        s's degree, so on packed monomials that is one `max`; a failure
        names the first monomial in term order that is greater than s.

        Only the terms at or above s decide that, so the derivation drops
        every term that lies below s minus the largest shifts still to be
        applied (see `_derive`): it cannot climb back to s, and the terms
        at or above s keep their coefficients and their order.
        """
        return self._check_lead(self._straighten_packed(weight, s, path, True), s)

    def verify_many(self, cases):
        """`verify` for each (weight, s, path) in cases, yielding its result
        in case order.

        Every case is validated as `verify` validates it.  The operator
        words depend only on the row of the path's end, so cases of one
        degree on paths ending in one row share every prefix of factor
        powers: derivations run factor by factor through a trie rooted at
        that row and keyed, level by level, by the power of the factor, and
        each polynomial in it is derived once.  A power of 0 keeps its
        parent's polynomial.  The trie holds one degree at a time and is
        dropped when the degree changes, so cases sorted by degree share
        the most; nothing outlives the call.
        """
        width = self._tables.width
        trie_sigma, roots = None, {}
        for weight, s, path in cases:
            sigma, factors = self._checked_factors(weight, s, path)
            if sigma != trie_sigma:
                trie_sigma, roots = sigma, {}
            row = path.labels[-1].row
            node = roots.get(row)
            if node is None:
                node = roots[row] = ({self._start(sigma): 1}, {})
            for factor in factors:
                poly, children = node
                node = children.get(factor[2])
                if node is None:
                    node = children[factor[2]] = (_derive(poly, (factor,), width), {})
            yield self._check_lead(node[0], s)
