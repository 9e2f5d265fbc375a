"""Marked posets: order/chain points, transfer, and the rank-one family."""

import random
from itertools import product

import pytest

from fflv.marked_poset import (
    MarkedPoset,
    abs_verify,
    chain_constraints,
    chain_points,
    fflv_marked_poset,
    fflv_points_match,
    n1_attachments,
    n1_family_poset,
    n1_formula,
    n1_report,
    order_points,
    transfer,
)
from fflv.polytope import inequalities, lattice_points
from fflv.rootsys import RootLabel
from randposets import random_marked_poset


def L(row, col, barred=False):
    return RootLabel(row, col, barred)


def test_rank1_odd_realization():
    poset = fflv_marked_poset("odd", 1, (2,))
    assert len(poset) == 5
    assert set(poset.unmarked) == {L(1, 1), L(1, 1, True)}
    assert poset.marking_of(("t", 1)) == 0
    assert poset.marking_of(("u", 1)) == 2
    assert poset.marking_of(("v", 1)) == 2
    assert len(order_points(poset)) == 6
    assert len(chain_points(poset)) == 6
    assert abs_verify(poset) is None


def test_rank1_chain_constraints():
    poset = fflv_marked_poset("odd", 1, (2,))
    cons = set(chain_constraints(poset))
    assert cons == {
        (frozenset({L(1, 1)}), 2),
        (frozenset({L(1, 1), L(1, 1, True)}), 2),
    }


def test_chain_rows_match_inequality_rows():
    cases = [
        ("odd", 2, ((1, 0), (0, 1), (2, 2))),
        ("even", 2, ((1, 1), (2, 0))),
        ("odd", 3, ((1, 0, 1),)),
        ("even", 3, ((1, 1, 0),)),
    ]
    for family, n, weights in cases:
        for weight in weights:
            cons = set(chain_constraints(fflv_marked_poset(family, n, weight)))
            rows = {
                (row.support, row.bound)
                for row in inequalities(family, n, weight).rows
            }
            assert cons == rows


def test_chain_points_match_lattice_points():
    for family, n, weight in [
        ("odd", 1, (2,)),
        ("odd", 2, (1, 1)),
        ("even", 2, (2, 1)),
    ]:
        assert fflv_points_match(family, n, weight)


def test_transfer_examples():
    poset = fflv_marked_poset("odd", 1, (1,))
    # canonical slot order: (1,1), (1,1bar), t1, u1, v1
    assert transfer(poset, (1, 1, 0, 1, 1)) == (1, 0)
    poset2 = fflv_marked_poset("odd", 1, (2,))
    assert transfer(poset2, (1, 2, 0, 2, 2)) == (1, 1)
    assert transfer(
        poset2,
        {L(1, 1): 0, L(1, 1, True): 0, ("t", 1): 0, ("u", 1): 2, ("v", 1): 2},
    ) == (0, 0)


def test_transfer_rejects_bad_points():
    poset = fflv_marked_poset("odd", 1, (1,))
    with pytest.raises(ValueError):
        transfer(poset, (1, 0, 0, 1, 1))     # not monotone along (1,1) < (1,1bar)
    with pytest.raises(ValueError):
        transfer(poset, (0, 0, 1, 1, 1))     # marked slot t1 must equal 0
    with pytest.raises(ValueError):
        transfer(poset, (0, 0, 0))


def test_transfer_messages_and_mapping_input():
    poset = fflv_marked_poset("odd", 1, (1,))
    with pytest.raises(ValueError, match="not an order point"):
        transfer(poset, (1, 0, 0, 1, 1))
    with pytest.raises(ValueError, match="marked element t1 must equal 0"):
        transfer(poset, (0, 0, 1, 1, 1))
    with pytest.raises(ValueError, match="marked element t1 must equal 0"):
        transfer(poset, {L(1, 1): 0, L(1, 1, True): 0, ("u", 1): 1, ("v", 1): 1})
    with pytest.raises(ValueError, match="wrong length"):
        transfer(poset, (0, 0, 0))
    assert poset.unmarked == (L(1, 1), L(1, 1, True))
    # A mapping and a tuple over the canonical order give the same image.
    poset = fflv_marked_poset("odd", 2, (1, 1))
    for x in order_points(poset):
        assert transfer(poset, dict(zip(poset.elements, x))) == transfer(poset, x)


def test_order_points_zero_weight():
    poset = fflv_marked_poset("even", 2, (0, 0))
    assert order_points(poset) == ((0,) * len(poset),)
    assert chain_points(poset) == ((0, 0, 0, 0),)


def test_abs_on_library_posets():
    for family, n, weight in [
        ("odd", 2, (1, 1)),
        ("even", 2, (2, 1)),
        ("odd", 3, (1, 0, 1)),
    ]:
        assert abs_verify(fflv_marked_poset(family, n, weight)) is None


def test_abs_on_random_posets():
    rng = random.Random(97)
    for _ in range(40):
        assert abs_verify(random_marked_poset(rng)) is None


def test_transfer_bijects_order_onto_chain():
    poset = fflv_marked_poset("odd", 2, (1, 1))
    images = {transfer(poset, x) for x in order_points(poset)}
    assert images == set(chain_points(poset))


def test_validation_errors():
    with pytest.raises(ValueError):
        MarkedPoset(("a", "a"), (), (("a", 0),))
    with pytest.raises(ValueError):
        MarkedPoset(("a", "b"), (("a", "b"), ("b", "a")), (("a", 0),))
    with pytest.raises(ValueError):
        MarkedPoset(("a",), (), (("ghost", 0),))
    with pytest.raises(ValueError):
        MarkedPoset(("a", "b"), (("a", "b"),), (("a", 2), ("b", 1)))
    unmarked_min = MarkedPoset(("a", "b"), (("a", "b"),), (("b", 3),))
    with pytest.raises(ValueError):
        order_points(unmarked_min)


def test_poset_serialization():
    poset = fflv_marked_poset("odd", 1, (1,))
    data = poset.to_json()
    assert set(data) == {"elements", "covers", "markings"}
    assert len(data["elements"]) == 5
    assert data["markings"]["t1"] == 0


def test_n1_formula_values():
    assert n1_formula(1, ()) == 1
    assert n1_formula(2, (1,)) == 3
    assert n1_formula(3, (1, 0)) == 4
    assert n1_formula(3, (0, 1)) == 5
    assert n1_formula(3, (1, 1)) == 16
    assert n1_formula(4, (3, 3, 3)) == 22528
    with pytest.raises(ValueError):
        n1_formula(2, ())
    with pytest.raises(ValueError):
        n1_formula(0, ())
    with pytest.raises(ValueError):
        n1_formula(2, (-1,))


def test_n1_rank_one_counts_match_polytope():
    for m in range(4):
        count = len(chain_points(n1_family_poset(2, (m,), "row1_end")))
        assert count == n1_formula(2, (m,))
        assert count == len(lattice_points("odd", 1, (m,)))


def test_n1_row1_end_matches_formula():
    for k in (1, 2, 3):
        for m in product(range(3), repeat=k - 1):
            count = len(chain_points(n1_family_poset(k, m, "row1_end")))
            assert count == n1_formula(k, m)


def test_n1_other_attachments_fail():
    failures = [
        ("below_first", 3, (0, 1), 3),
        ("above_first", 3, (0, 1), 3),
        ("parallel_first", 2, (1,), 4),
        ("below_last", 3, (1, 0), 3),
        ("above_last", 3, (0, 1), 4),
    ]
    for attachment, k, m, count in failures:
        got = len(chain_points(n1_family_poset(k, m, attachment)))
        assert got == count
        assert got != n1_formula(k, m)


def test_n1_report():
    report = n1_report(3, 2)
    assert report["passing"] == ["row1_end"]
    assert [r["attachment"] for r in report["results"]] == list(n1_attachments)
    for r in report["results"]:
        if r["attachment"] == "row1_end":
            assert r["status"] == "pass" and r["counterexample"] is None
        else:
            assert r["status"] == "fail" and r["counterexample"] is not None
    with pytest.raises(ValueError):
        n1_family_poset(2, (1,), "nowhere")
    with pytest.raises(ValueError):
        n1_family_poset(2, (1, 1), "row1_end")
