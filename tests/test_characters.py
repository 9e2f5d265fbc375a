"""Graded characters, branching sums, and dimension formulas."""

from itertools import product
from math import prod

import pytest

from fflv.characters import (
    GradedCharacter,
    QPolynomial,
    delta_set,
    dim,
    interlace_set,
    qchar_branching,
    qchar_polytope,
    qdim,
    weyl_dim,
)
from pbw_module import form, index_weight, lowering_operators, pbw_character


def test_delta_set():
    assert delta_set((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for weight in ((0, 0), (2, 1), (1, 2, 2)):
        assert len(delta_set(weight)) == prod(m + 1 for m in weight)
    with pytest.raises(ValueError):
        delta_set((1, -1))


def test_interlace_set():
    assert interlace_set((2, 1)) == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert interlace_set((3,)) == [(0,), (1,), (2,), (3,)]
    for part in ((2, 2), (3, 1, 0)):
        padded = part + (0,)
        assert len(interlace_set(part)) == prod(
            padded[i] - padded[i + 1] + 1 for i in range(len(part))
        )
    with pytest.raises(ValueError):
        interlace_set((1, 2))


def test_weyl_dim_values():
    rank2 = {(1, 0): 4, (1, 1): 5, (2, 0): 10, (2, 1): 16, (2, 2): 14, (4, 2): 81}
    for part, value in rank2.items():
        assert weyl_dim(2, part) == value
    rank3 = {(1, 0, 0): 6, (1, 1, 0): 14, (1, 1, 1): 14, (2, 1, 0): 64}
    for part, value in rank3.items():
        assert weyl_dim(3, part) == value
    # dim at twice the Weyl vector is 3 to the number of positive roots
    assert weyl_dim(2, (4, 2)) == 3**4
    assert weyl_dim(3, (6, 4, 2)) == 3**9
    for m in range(4):
        assert weyl_dim(1, (m,)) == m + 1
    assert weyl_dim(2, (0,)) == 1


def test_weyl_dim_rejects_bad_input():
    with pytest.raises(ValueError):
        weyl_dim(2, (1, 2))
    with pytest.raises(ValueError):
        weyl_dim(2, (1, 0, 0))
    with pytest.raises(ValueError):
        weyl_dim(2, (-1, -2))


# Each public entry point as f(family, n, weight); branching is odd-only.
WEIGHT_BOUNDARY = {
    "dim": dim,
    "qdim": qdim,
    "qchar_polytope": qchar_polytope,
    "qchar_branching": lambda family, n, weight: qchar_branching(n, weight),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_BOUNDARY))
def test_weight_validated_at_boundary(name):
    fn = WEIGHT_BOUNDARY[name]
    assert fn("odd", 2, [1, 2]) == fn("odd", 2, (1, 2))
    with pytest.raises(ValueError, match="weight length must equal the rank"):
        fn("odd", 2, (1,))
    with pytest.raises(ValueError, match="fundamental coordinates must be nonnegative"):
        fn("odd", 2, [1, -1])


def test_qchar_polytope_rank1():
    char = qchar_polytope("odd", 1, (1,))
    assert char.to_json() == [
        {"weight": [-1, 0], "poly": {"1": 1}},
        {"weight": [0, 1], "poly": {"1": 1}},
        {"weight": [1, 0], "poly": {"0": 1}},
    ]
    assert char.total_dim() == 3
    assert char.qdim() == QPolynomial({0: 1, 1: 2})


def test_qdim_examples():
    assert qdim("even", 2, (0, 1)) == QPolynomial({0: 1, 1: 3, 2: 1})
    assert qdim("odd", 1, (1,)) == QPolynomial({0: 1, 1: 2})
    assert qdim("odd", 2, (0, 0)) == QPolynomial({0: 1})


def test_branching_matches_polytope_rank1():
    for m in range(4):
        assert qchar_branching(1, (m,)) == qchar_polytope("odd", 1, (m,))


def test_branching_matches_polytope_rank2_first_column():
    for m1 in range(3):
        weight = (m1, 0)
        assert qchar_branching(2, weight) == qchar_polytope("odd", 2, weight)


def test_branching_rank2_grading_discrepancy():
    # The two constructions agree after q -> 1 but not as exact q-maps:
    # the filtration collapses one degree-2 monomial to degree 1, which a
    # uniform degree shift per branching component cannot reproduce.
    a = qchar_polytope("odd", 2, (0, 1))
    b = qchar_branching(2, (0, 1))
    assert a != b
    assert a.qdim() == QPolynomial({0: 1, 1: 5, 2: 3})
    assert b.qdim() == QPolynomial({0: 1, 1: 4, 2: 4})
    assert a.total_dim() == b.total_dim() == 9
    for w in set(a.terms) | set(b.terms):
        pa = a.terms.get(w)
        pb = b.terms.get(w)
        assert (pa.at_one() if pa else 0) == (pb.at_one() if pb else 0)
    # The PBW filtration settles it: the lowering operator of eps_1 - eps_0
    # sends e_1 ^ e_2 to e_0 ^ e_2, so that weight has PBW degree 1, as the
    # polytope says, and not 2, as the branching sum says.
    oracle = pbw_character(2, (0, 1))
    assert oracle[(0, 1, 1)] == {1: 1}
    assert a.terms[(0, 1, 1)] == QPolynomial({1: 1})
    assert b.terms[(0, 1, 1)] == QPolynomial({2: 1})
    assert {w: QPolynomial(g) for w, g in oracle.items()} != b.terms


def test_pbw_oracle_lowering_operators():
    # Each operator of the oracle preserves the degenerate form and lowers
    # weights by its root, so it is the root vector of n^- it claims to be.
    for n in (1, 2, 3):
        ops = lowering_operators(n)
        assert len({root for root, _ in ops}) == n * (n + 1)
        basis = range(-n, n + 1)
        for root, op in ops:
            for a in basis:
                for b, _ in op.get(a, ()):
                    shifted = [x - y for x, y in zip(index_weight(n, a), root)]
                    assert index_weight(n, b) == shifted
                for b in basis:
                    lhs = sum(c * form(t, b) for t, c in op.get(a, ()))
                    rhs = sum(c * form(a, t) for t, c in op.get(b, ()))
                    assert lhs + rhs == 0


def test_q_one_specialization_agrees_rank2():
    for weight in product(range(3), repeat=2):
        a = qchar_polytope("odd", 2, weight)
        b = qchar_branching(2, weight)
        assert a.total_dim() == b.total_dim()
        for w in set(a.terms) | set(b.terms):
            pa = a.terms.get(w)
            pb = b.terms.get(w)
            assert (pa.at_one() if pa else 0) == (pb.at_one() if pb else 0)


def test_weyl_group_invariance_at_q_one():
    # Every graded slice in the distinguished direction restricts to a
    # module over the rank-n subalgebra, so weight multiplicities at q = 1
    # are invariant under signed permutations of the first n coordinates.
    cases = [("odd", 2, (1, 1)), ("even", 2, (2, 1)), ("odd", 1, (2,))]
    for family, n, weight in cases:
        char = qchar_polytope(family, n, weight)
        counts = {w: p.at_one() for w, p in char.terms.items()}
        for w, c in counts.items():
            body, tail = w[:n], w[n:]
            for k in range(n - 1):
                img = list(body)
                img[k], img[k + 1] = img[k + 1], img[k]
                assert counts.get(tuple(img) + tail, 0) == c
            flipped = (-body[0],) + body[1:] + tail
            assert counts.get(flipped, 0) == c


def test_dim_methods_and_spots():
    assert dim("odd", 2, (1, 0)) == 5
    assert dim("odd", 2, (0, 1)) == 9
    assert dim("odd", 2, (1, 1)) == 35
    assert dim("odd", 2, (1, 1), method="branching") == 35
    assert dim("even", 2, (1, 1)) == 16
    assert dim("even", 2, (1, 1), method="weyl") == 16
    for weight in product(range(3), repeat=2):
        assert dim("even", 2, weight, method="weyl") == dim("even", 2, weight)


def test_dim_rejects_bad_combinations():
    with pytest.raises(ValueError):
        dim("even", 2, (1, 1), method="branching")
    with pytest.raises(ValueError):
        dim("odd", 2, (1, 1), method="weyl")
    with pytest.raises(ValueError):
        dim("odd", 2, (1, 1), method="magic")


def test_qpolynomial_basics():
    p = QPolynomial({0: 1, 2: 3})
    p.add_term(1, 2)
    p.add_term(2, -3)
    assert p == QPolynomial({0: 1, 1: 2})
    assert p.at_one() == 3
    assert repr(p) == "1 + 2*q"
    assert repr(QPolynomial()) == "0"
    assert not QPolynomial({1: 0})


def test_graded_character_cancellation():
    char = GradedCharacter()
    char.add_term((1, 0), 0)
    char.add_term((1, 0), 0, -1)
    assert len(char) == 0
    assert char == GradedCharacter()
