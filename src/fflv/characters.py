"""Graded characters, branching sets and exact dimension formulas.

A graded character is a finite sum of terms e^w q^d with integer weights w
in eps-coordinates.  The odd polytope character sums e^(lambda - wt(s)) q^deg(s)
over lattice points; it is the PBW-graded character of the odd module.  The
branching character is built from even-family polytopes, one per branching
tuple, with the gl_1 charge of each component carried on eps_0.  It has the
same weight multiplicities (the two agree at q = 1), but from rank 2 on its
q-grading differs, because each component is shifted uniformly.  Dimensions
come from either route or from the Weyl dimension formula of type C_n, all
in exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .polytope import lattice_points
from .rootsys import (
    Weight,
    build_poset,
    check_weight,
    fundamental_from_partition,
    fundamental_to_eps,
    partition_from_fundamental,
    wt_deg,
)


class QPolynomial:
    """Polynomial in q with integer coefficients, stored sparsely."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    def add_term(self, exp: int, coeff: int = 1) -> None:
        c = self.coeffs.get(exp, 0) + coeff
        if c:
            self.coeffs[exp] = c
        else:
            self.coeffs.pop(exp, None)

    def at_one(self) -> int:
        return sum(self.coeffs.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            else:
                q = "q" if e == 1 else f"q^{e}"
                parts.append(q if c == 1 else f"{c}*{q}")
        return " + ".join(parts)

    def to_json(self) -> dict[str, int]:
        return {str(e): self.coeffs[e] for e in sorted(self.coeffs)}


class GradedCharacter:
    """Map from eps-weights to q-polynomials."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms: dict[Weight, QPolynomial] = {}

    def add_term(self, weight: Weight, exp: int, coeff: int = 1) -> None:
        poly = self.terms.get(weight)
        if poly is None:
            poly = self.terms[weight] = QPolynomial()
        poly.add_term(exp, coeff)
        if not poly:
            del self.terms[weight]

    def total_dim(self) -> int:
        return sum(p.at_one() for p in self.terms.values())

    def qdim(self) -> QPolynomial:
        out = QPolynomial()
        for p in self.terms.values():
            for e, c in p.coeffs.items():
                out.add_term(e, c)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedCharacter) and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def to_json(self) -> list[dict]:
        return [
            {"weight": list(w), "poly": self.terms[w].to_json()}
            for w in sorted(self.terms)
        ]


def delta_set(weight: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Branching tuples 0 <= mutilde_i <= m_i, in lexicographic order."""
    if any(m < 0 for m in weight):
        raise ValueError("fundamental coordinates must be nonnegative")
    return list(product(*(range(m + 1) for m in weight)))


def interlace_set(part: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Partitions mu with lambda_{i+1} <= mu_i <= lambda_i (lambda_{n+1} = 0)."""
    padded = tuple(part) + (0,)
    if any(a < b for a, b in zip(padded, padded[1:])):
        raise ValueError("not a partition")
    return list(product(*(range(padded[i + 1], padded[i] + 1)
                          for i in range(len(part)))))


def weyl_dim(n: int, mu: tuple[int, ...]) -> int:
    """Dimension of the sp_{2n} irreducible with highest weight mu (partition)."""
    if len(mu) > n:
        raise ValueError("too many parts")
    padded = tuple(mu) + (0,) * (n - len(mu))
    if any(x < 0 for x in padded) or any(
        a < b for a, b in zip(padded, padded[1:])
    ):
        raise ValueError("not a dominant partition")
    l = [padded[i] + n - i for i in range(n)]   # mu + rho, rho = (n, ..., 1)
    r = [n - i for i in range(n)]
    val = Fraction(1)
    for i in range(n):
        val *= Fraction(l[i], r[i])
        for j in range(i + 1, n):
            val *= Fraction(l[i] ** 2 - l[j] ** 2, r[i] ** 2 - r[j] ** 2)
    if val.denominator != 1:
        raise ArithmeticError("Weyl dimension is not integral")
    return int(val)


def qchar_polytope(family: str, n: int, weight: tuple[int, ...]) -> GradedCharacter:
    """sum over lattice points of e^(lambda - wt(s)) q^deg(s).

    This is the PBW-graded character: the coefficient of q^d at a weight is
    the dimension of that weight space in F_d / F_(d-1), where F_d is spanned
    by at most d lowering operators applied to the highest weight vector.
    """
    weight = check_weight(family, n, weight)
    poset = build_poset(family, n)
    lam_eps = fundamental_to_eps(weight)
    char = GradedCharacter()
    for s in lattice_points(family, n, weight):
        wt, deg = wt_deg(poset, s)
        char.add_term(tuple(a - b for a, b in zip(lam_eps, wt)), deg)
    return char


def qchar_branching(n: int, weight: tuple[int, ...]) -> GradedCharacter:
    """Odd-family character assembled from even-family polytopes.

    For each branching tuple mutilde the weight lambda - mutilde is formed by
    subtracting in partition coordinates; subtracting in fundamental
    coordinates gives wrong counts already at n = 2, lambda = omega_2.
    """
    weight = check_weight("odd", n, weight)
    lam_eps = fundamental_to_eps(weight)
    lam_part = partition_from_fundamental(weight)
    even_poset = build_poset("even", n)
    char = GradedCharacter()
    for mut in delta_set(weight):
        sub = fundamental_from_partition(
            tuple(a - b for a, b in zip(lam_part, mut))
        )
        deg_mut = sum(mut)
        # wt(mutilde) = sum mutilde_i (eps_i - eps_0)
        base = list(lam_eps)
        for i, x in enumerate(mut):
            base[i] -= x
        base[n] += deg_mut
        for s in lattice_points("even", n, sub):
            wt, deg = wt_deg(even_poset, s)
            char.add_term(
                tuple(a - b for a, b in zip(base, wt)), deg + deg_mut
            )
    return char


def dim(family: str, n: int, weight: tuple[int, ...], method: str = "polytope") -> int:
    """Dimension by lattice-point count, branching sum, or Weyl formula."""
    weight = check_weight(family, n, weight)
    if method == "polytope":
        return len(lattice_points(family, n, weight))
    if method == "branching":
        if family != "odd":
            raise ValueError("branching dimension is defined for the odd family")
        part = partition_from_fundamental(weight)
        return sum(weyl_dim(n, mu) for mu in interlace_set(part))
    if method == "weyl":
        if family != "even":
            raise ValueError("the Weyl formula applies to the even family")
        return weyl_dim(n, partition_from_fundamental(weight))
    raise ValueError(f"unknown method {method!r}")


def qdim(family: str, n: int, weight: tuple[int, ...]) -> QPolynomial:
    """Graded dimension sum over lattice points of q^deg(s)."""
    weight = check_weight(family, n, weight)
    out = QPolynomial()
    for s in lattice_points(family, n, weight):
        out.add_term(sum(s))
    return out
