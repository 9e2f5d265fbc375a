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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .polytope import Counterexample
from .rootsys import RootLabel, build_poset


class DerivationId(NamedTuple):
    """Either subtraction of an even-family positive root or the special
    derivation (bracket with the matrix unit at the bottom middle)."""

    kind: str  # "root" | "special"
    root: RootLabel | None = None

    def __str__(self) -> str:
        if self.kind == "special":
            return "d_special"
        return f"d{self.root}"


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


@lru_cache(maxsize=1024)
def _derivation_rules(n: int, op: DerivationId):
    """Action of op on the rank-n generators: variable index -> (target
    index, coefficient).  Read-only, since every Straightener of rank n
    shares it."""
    odd = build_poset("odd", n)
    rules: dict[int, tuple[int, int]] = {}
    if op.kind == "root":
        even = build_poset("even", n)
        alpha = even.roots[even.index(op.root)].eps
        eps_to_var = {r.eps: k for k, r in enumerate(odd.roots)}
        for k, r in enumerate(odd.roots):
            tgt = eps_to_var.get(tuple(a - b for a, b in zip(r.eps, alpha)))
            if tgt is not None:
                rules[k] = (tgt, 1)
    elif op.kind == "special":
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
    return MappingProxyType(rules)


class Straightener:
    """Symbolic engine for one odd-family rank.

    Monomials are exponent tuples over the odd roots in canonical order;
    polynomials are dicts from monomials to integer coefficients.
    """

    def __init__(self, n: int):
        self.poset = build_poset("odd", n)
        self.n = n
        self.labels = self.poset.labels()
        self.nvars = len(self.labels)
        self._even = build_poset("even", n)
        # Canonical order is row-major, so each row's variables form a slice.
        rows = [lab.row for lab in self.labels]
        self._row_slices = [
            slice(bisect_left(rows, i), bisect_right(rows, i)) for i in range(1, n + 1)
        ]
        self._col_vars: dict[tuple[int, bool], list[int]] = {}
        for k, lab in enumerate(self.labels):
            self._col_vars.setdefault((lab.col, lab.barred), []).append(k)

    # -- monomial order ----------------------------------------------------

    def row_sums(self, s: tuple[int, ...]) -> tuple[int, ...]:
        """(s_{1,.}, ..., s_{n,.})"""
        return tuple(sum(s[r]) for r in self._row_slices)

    def column_sum(self, s: tuple[int, ...], col: int, barred: bool) -> int:
        """s_{.,col} or s_{.,colbar}: the sum over rows of one column."""
        return sum(s[k] for k in self._col_vars.get((col, barred), ()))

    def order_key(self, s: tuple[int, ...]) -> tuple:
        """Sort key of the straightening order: s comes before t exactly when
        order_key(s) > order_key(t).

        Larger total degree wins; on equal degree the smaller reversed row-sum
        vector (row n first) wins; ties break by exponents along the variable
        order, in which all of row n beats row n-1 and so on and within a row
        the rightmost column of the alphabet is largest: the reverse of the
        canonical order.  The key holds every exponent, so it is injective.
        """
        return (
            sum(s),
            tuple(-sum(s[r]) for r in reversed(self._row_slices)),
            tuple(s[::-1]),
        )

    def succ_compare(self, s: tuple[int, ...], t: tuple[int, ...]) -> int:
        """1 if s comes strictly before t in the straightening order, -1 if
        strictly after, 0 if equal."""
        ks, kt = self.order_key(s), self.order_key(t)
        return (ks > kt) - (ks < kt)

    # -- derivations -------------------------------------------------------

    def root_derivation(self, label: RootLabel) -> DerivationId:
        if label not in self._even:
            raise ValueError(f"{label} is not an even-family positive root")
        return DerivationId("root", label)

    def special_derivation(self) -> DerivationId:
        return DerivationId("special")

    def derivation_rules(self, op: DerivationId):
        """Action on generators: variable index -> (target index, coefficient)."""
        return _derivation_rules(self.n, op)

    def apply_derivation(self, op: DerivationId, poly: dict) -> dict:
        """One application, extended to products by the Leibniz rule."""
        rules = tuple(self.derivation_rules(op).items())
        out: dict[tuple[int, ...], int] = {}
        for mono, coeff in poly.items():
            for k, (tgt, c) in rules:
                e = mono[k]
                if not e:
                    continue
                new = list(mono)
                new[k] -= 1
                new[tgt] += 1
                key = tuple(new)
                val = out.get(key, 0) + coeff * c * e
                if val:
                    out[key] = val
                else:
                    del out[key]
        return out

    def apply_word(self, word, poly: dict) -> dict:
        """Apply a displayed operator word, rightmost factor first."""
        for op, exp in reversed(tuple(word)):
            for _ in range(exp):
                poly = self.apply_derivation(op, poly)
        return poly

    # -- straightening -----------------------------------------------------

    def _check_path_point(self, s: tuple[int, ...], path) -> None:
        if path.family != "odd" or path.n != self.n:
            raise ValueError("path belongs to a different poset")
        if len(s) != self.nvars or any(x < 0 for x in s):
            raise ValueError("exponent vector has the wrong shape")
        if path.start != RootLabel(1, 1, False):
            raise ValueError("path must start at the top-left diagonal root")
        if not path.end.barred:
            raise ValueError("path must end at a barred root")
        support = set(path.labels)
        for k, lab in enumerate(self.labels):
            if s[k] and lab not in support:
                raise ValueError(f"exponent vector is not supported on the path")

    def build_delta_ops(self, s: tuple[int, ...], path):
        """The two operator words for a violating vector on a barred path.

        Words are returned in display order (apply right to left); factors
        with zero exponent are omitted.  With i the row of the path's end:
        the first word is the prefix d(1,i-1)^{s_{.,ibar}+s_{i,.}} (absent
        for i = 1), then d(j,jbar)^{s_{.,j-1}} for j = i+1..n, then the
        special derivation to the power s_{.,n} followed by
        d(1,j)^{s_{.,j}+s_{.,(j+1)bar}} for j = n-1..i, then
        d(1,kbar)^{s_{.,k-1}} for k = i..2.  The second word is
        d(1,j)^{s_{j+1,.}} for j = 1..i-2.
        """
        self._check_path_point(s, path)
        n = self.n
        i = path.end.row
        rows = self.row_sums(s)
        col = self.column_sum

        def d(row: int, column: int, barred: bool = False) -> DerivationId:
            return self.root_derivation(RootLabel(row, column, barred))

        delta1 = [(d(1, i - 1), col(s, i, True) + rows[i - 1])] if i >= 2 else []
        delta1 += [(d(j, j, True), col(s, j - 1, False)) for j in range(i + 1, n + 1)]
        delta1.append((self.special_derivation(), col(s, n, False)))
        delta1 += [
            (d(1, j), col(s, j, False) + col(s, j + 1, True))
            for j in range(n - 1, i - 1, -1)
        ]
        delta1 += [(d(1, k, True), col(s, k - 1, False)) for k in range(i, 1, -1)]
        delta2 = [(d(1, j), rows[j]) for j in range(1, i - 1)]
        return (
            tuple(factor for factor in delta1 if factor[1]),
            tuple(factor for factor in delta2 if factor[1]),
        )

    def straighten(self, weight: tuple[int, ...], s: tuple[int, ...], path) -> dict:
        """Apply both operator words to the pure power of f_{1,1bar}."""
        delta1, delta2 = self.build_delta_ops(s, path)
        sigma = sum(s)
        if sigma < sum(weight) + 1:
            raise ValueError("exponent vector does not violate the path bound")
        start_var = self.poset.index(RootLabel(1, 1, True))
        mono = [0] * self.nvars
        mono[start_var] = sigma
        poly = {tuple(mono): 1}
        poly = self.apply_word(delta1, poly)
        return self.apply_word(delta2, poly)

    def verify(self, weight: tuple[int, ...], s: tuple[int, ...], path) -> Counterexample | None:
        """Check f^s leads the straightened polynomial.

        Passes when s has a nonzero coefficient and every other monomial is
        strictly smaller in the straightening order.
        """
        poly = self.straighten(weight, s, path)
        if not poly.get(s):
            return Counterexample("leading_term_missing", s)
        lead = self.order_key(s)
        for t in poly:
            if t != s and self.order_key(t) > lead:
                return Counterexample("term_not_smaller", t)
        return None

    # -- serialization -----------------------------------------------------

    def poly_to_json(self, poly: dict) -> list[dict]:
        """Term list sorted by the straightening order, greatest first."""
        monos = sorted(poly, key=self.order_key, reverse=True)
        return [{"exponents": list(t), "coeff": poly[t]} for t in monos]

    def word_to_json(self, word) -> list[dict]:
        return [{"op": str(op), "power": exp} for op, exp in word]
