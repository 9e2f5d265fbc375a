"""Marked posets: order/chain points, transfer, and the rank-one family."""

import hashlib
import random
from itertools import product
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflv.marked_poset import (
    MarkedPoset,
    abs_verify,
    chain_constraints,
    check_transfer,
    chain_points,
    fflv_marked_poset,
    n1_attachments,
    n1_family_poset,
    n1_formula,
    n1_report,
    order_count,
    order_points,
    transfer,
)
from fflv import marked_poset
from fflv.characters import dim
from fflv.polytope import Counterexample, inequalities, lattice_points
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


# SHA-256 of the repr of (elements, covers, markings) of fflv_marked_poset
# at the zero weight, the all-ones weight and (2, 1, 0, 3, 2)[:n], in that
# order.  Element order fixes the coordinate order of every order point and
# counterexample, so it is pinned along with the covers and markings.
PINNED_FFLV_POSET_SHA256 = [
    (("odd", 1), "103f74efd80360d483958ac9a060d611942140f711a7857dd723e1f6955c5e57"),
    (("odd", 2), "101d03f3aeef8235128ac594d22bfffe873c7e8cf0afaec39946929b70558f27"),
    (("odd", 3), "cc3a27035b3893852c5437faa5a4fa8e0bd07dd0ac40dd1cab01eef0122c0581"),
    (("odd", 4), "7781a69843c118c71964f7b39a029226a924c52d660afa9d01cd0c801670588e"),
    (("odd", 5), "8db9fbc01da218d4173a5a06556c452c306decdcc5be18eafeee68d4b7bd8173"),
    (("even", 1), "4b123d163474a7a9cea6a0f4c3a1661baee77dc5d1ad5d7ac0fa0465463db979"),
    (("even", 2), "d12adcb09788806af74c7bb8f00f700b50e559cbdd4028d8955b57a96ce35e34"),
    (("even", 3), "9f4c56b243489311ccb4f299fe15a933d03b8afe3460da7629ff109bc85c234e"),
    (("even", 4), "12449c045b1686c10337acc193bc0c2fc581969ea76987a0901ac7db32e19022"),
    (("even", 5), "64a9023dff0aa1234d09ff3c0457a8c6bbb86b29ee0334b34ae9a70495f09fcd"),
]


@pytest.mark.parametrize("case, digest", PINNED_FFLV_POSET_SHA256)
def test_fflv_marked_poset_pinned(case, digest):
    family, n = case
    weights = [(0,) * n, (1,) * n, (2, 1, 0, 3, 2)[:n]]
    posets = [fflv_marked_poset(family, n, w) for w in weights]
    text = repr([(p.elements, p.covers, p.markings) for p in posets])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
        poset = fflv_marked_poset(family, n, weight)
        assert set(chain_points(poset)) == set(lattice_points(family, n, weight))


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
    with pytest.raises(ValueError, match=r"no value for \(1,1\)"):
        transfer(poset, {("t", 1): 0, ("u", 1): 1, ("v", 1): 1})
    assert poset.unmarked == (L(1, 1), L(1, 1, True))
    # A mapping and a tuple over the canonical order give the same image.
    poset = fflv_marked_poset("odd", 2, (1, 1))
    for x in order_points(poset):
        assert transfer(poset, dict(zip(poset.elements, x))) == transfer(poset, x)


def test_transfer_rejects_a_key_that_is_not_an_element():
    poset = fflv_marked_poset("odd", 1, (1,))
    point = dict(zip(poset.elements, (1, 1, 0, 1, 1)))
    assert transfer(poset, point) == (1, 0)
    message = "^order point has a value for junk, which is not an element$"
    with pytest.raises(ValueError, match=message):
        transfer(poset, {**point, "junk": 5})
    with pytest.raises(ValueError, match=r"^order point has a value for \(2,2\), "):
        transfer(poset, MappingProxyType({**point, L(2, 2): 0, "junk": 5}))
    # A missing value is named before a key that is not an element.
    del point[L(1, 1)]
    with pytest.raises(ValueError, match=r"no value for \(1,1\)"):
        transfer(poset, {**point, "junk": 5})


def test_transfer_accepts_any_mapping():
    # A read-only mapping is a mapping too, not a sequence over the slots.
    poset = fflv_marked_poset("odd", 2, (1, 1))
    for x in order_points(poset):
        point = dict(zip(poset.elements, x))
        assert transfer(poset, MappingProxyType(point)) == transfer(poset, point)
    poset = fflv_marked_poset("odd", 1, (1,))
    with pytest.raises(ValueError, match=r"no value for \(1,1\)"):
        transfer(poset, MappingProxyType({("t", 1): 0, ("u", 1): 1, ("v", 1): 1}))
    with pytest.raises(ValueError, match="marked element t1 must equal 0"):
        transfer(poset, MappingProxyType(
            {L(1, 1): 0, L(1, 1, True): 0, ("u", 1): 1, ("v", 1): 1}))
    with pytest.raises(ValueError, match="marked element t1 must equal 0"):
        transfer(poset, MappingProxyType(
            {L(1, 1): 0, L(1, 1, True): 0, ("t", 1): 1, ("u", 1): 1, ("v", 1): 1}))
    with pytest.raises(ValueError, match="not an order point"):
        transfer(poset, MappingProxyType(
            {L(1, 1): 1, L(1, 1, True): 0, ("t", 1): 0, ("u", 1): 1, ("v", 1): 1}))


def test_order_points_zero_weight():
    poset = fflv_marked_poset("even", 2, (0, 0))
    assert order_points(poset) == ((0,) * len(poset),)
    assert chain_points(poset) == ((0, 0, 0, 0),)


def brute_order_points(poset):
    """Every labelling in [least, greatest marking] that extends the markings
    and is monotone along the covers, sorted."""
    marks = dict(poset.markings)
    values = range(min(marks.values()), max(marks.values()) + 1)
    out = []
    for free in product(values, repeat=len(poset.unmarked)):
        label = {**dict(zip(poset.unmarked, free)), **marks}
        if all(label[a] <= label[b] for a, b in poset.covers):
            out.append(tuple(label[e] for e in poset.elements))
    return tuple(sorted(out))


def relabel(poset, perm):
    """The poset with element e renamed perm[e], listed as range(len(poset)),
    so the canonical order is in general no linear extension."""
    return MarkedPoset(
        tuple(range(len(poset))),
        tuple((perm[a], perm[b]) for a, b in poset.covers),
        tuple((perm[e], v) for e, v in poset.markings),
    )


@settings(deadline=None, database=None, max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_order_points_match_brute_force(seed):
    rng = random.Random(seed)
    poset = random_marked_poset(rng)
    assert order_points(poset) == brute_order_points(poset)
    shuffled = relabel(poset, rng.sample(range(len(poset)), len(poset)))
    assert order_points(shuffled) == brute_order_points(shuffled)
    assert abs_verify(shuffled) is None


def test_order_points_edge_cases():
    assert order_points(MarkedPoset((), (), ())) == ((),)
    assert order_points(MarkedPoset(("a",), (), (("a", 3),))) == ((3,),)
    # Markings listed out of canonical order land in their own slots.
    poset = MarkedPoset(("a", "b", "c"), (("a", "c"), ("c", "b")),
                        (("b", 2), ("a", 0)))
    assert order_points(poset) == ((0, 2, 0), (0, 2, 1), (0, 2, 2))
    assert order_points(poset) == brute_order_points(poset)
    assert order_count(MarkedPoset((), (), ())) == 1
    assert order_count(MarkedPoset(("a",), (), (("a", 3),))) == 1
    assert order_count(poset) == 3


def test_order_points_high_rank():
    # No recursion per element: rank 35 has 1,365 elements.  The zero
    # weight forces every root, omega_1 all but the 70 of row 1, and the
    # walk and the count run over the free roots only.
    poset = fflv_marked_poset("odd", 35, (0,) * 35)
    assert order_points(poset) == ((0,) * len(poset),)
    for weight, count in (((0,) * 35, 1), ((1,) + (0,) * 34, 71)):
        poset = fflv_marked_poset("odd", 35, weight)
        assert order_count(poset) == count == len(order_points(poset))


def assert_counts_agree(poset):
    count = order_count(poset)
    assert count == len(chain_points(poset))
    assert count == len(order_points(poset))


def test_order_count_matches_points_on_n1_posets():
    for attachment in n1_attachments:
        for k in range(1, 5):
            for m in product(range(4), repeat=k - 1):
                assert_counts_agree(n1_family_poset(k, m, attachment))


def test_order_count_matches_points_on_random_posets():
    rng = random.Random(211)
    for _ in range(300):
        assert_counts_agree(random_marked_poset(rng))


def test_order_count_matches_dim_on_fflv_posets():
    for family in ("odd", "even"):
        for n in (1, 2, 3):
            for weight in product(range(3), repeat=n):
                poset = fflv_marked_poset(family, n, weight)
                assert order_count(poset) == dim(family, n, weight)


def test_long_marked_chain():
    # lo(0) < x_1 < ... < x_1200 < hi(1): one chain row with 1,200 unmarked
    # elements, more than the recursion limit.
    length = 1200
    elements = ("lo",) + tuple(range(1, length + 1)) + ("hi",)
    poset = MarkedPoset(elements, tuple(zip(elements, elements[1:])),
                        (("lo", 0), ("hi", 1)))
    chain = chain_points(poset)
    assert len(chain) == length + 1
    assert order_count(poset) == length + 1
    assert chain[0] == (0,) * length
    assert chain == tuple(sorted(chain))
    assert all(sum(p) <= 1 for p in chain)
    # Transfer is a bijection onto the chain points, so there are as many
    # order points.
    assert abs_verify(poset) is None


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


def test_check_transfer_failure_kinds():
    # Doctored order and chain lists reach each failure kind.
    poset = fflv_marked_poset("odd", 1, (1,))
    order, chain = order_points(poset), chain_points(poset)
    assert order == ((0, 0, 0, 1, 1), (0, 1, 0, 1, 1), (1, 1, 0, 1, 1))
    assert chain == ((0, 0), (0, 1), (1, 0))
    assert [transfer(poset, x) for x in order] == list(chain)
    assert check_transfer(poset, order, chain) is None
    assert check_transfer(poset, order, chain[1:]) == Counterexample(
        "image_outside_chain_polytope", (0, 0, 0, 1, 1))
    assert check_transfer(poset, order + order[1:2], chain) == Counterexample(
        "transfer_not_injective", (0, 1))
    # The least chain point that no order point reaches is reported.
    assert check_transfer(poset, order[:1], chain) == Counterexample(
        "transfer_not_surjective", (0, 1))


def test_validation_errors():
    with pytest.raises(ValueError):
        MarkedPoset(("a", "a"), (), (("a", 0),))
    with pytest.raises(ValueError):
        MarkedPoset(("a", "b"), (("a", "b"), ("b", "a")), (("a", 0),))
    with pytest.raises(ValueError):
        MarkedPoset(("a",), (), (("ghost", 0),))
    with pytest.raises(ValueError):
        MarkedPoset(("a", "b"), (("a", "b"),), (("a", 2), ("b", 1)))
    with pytest.raises(ValueError, match="second marking on element b"):
        MarkedPoset(("a", "b"), (("a", "b"),), (("a", 0), ("b", 1), ("b", 2)))
    # Every minimal and maximal element must be marked, checked when the
    # poset is built; a minimal element is named before a maximal one (last
    # case: the minimal b, although the maximal c comes first in canonical order).
    with pytest.raises(ValueError, match="extremal element a is unmarked"):
        MarkedPoset(("a", "b"), (("a", "b"),), (("b", 3),))
    with pytest.raises(ValueError, match="extremal element b is unmarked"):
        MarkedPoset(("a", "b"), (("a", "b"),), (("a", 3),))
    with pytest.raises(ValueError, match="extremal element b is unmarked"):
        MarkedPoset(("c", "m", "b"), (("b", "m"), ("m", "c")), (("m", 1),))


def test_construction_error_messages():
    with pytest.raises(ValueError, match="^cover on unknown element$"):
        MarkedPoset(("a", "b"), (("a", "ghost"),), (("a", 0), ("b", 1)))
    with pytest.raises(ValueError, match="^cover relation contains a cycle$"):
        MarkedPoset(("a", "b"), (("a", "b"), ("b", "a")), (("a", 0),))
    # A decreasing pair of markings, directly and through unmarked elements:
    # the message names the lower element of the pair.
    with pytest.raises(ValueError, match="^marking decreases along a chain at a$"):
        MarkedPoset(("a", "b"), (("a", "b"),), (("a", 2), ("b", 1)))
    with pytest.raises(ValueError, match="^marking decreases along a chain at a$"):
        MarkedPoset(("a", "w", "x", "c"),
                    (("a", "w"), ("w", "x"), ("x", "c")),
                    (("a", 2), ("c", 1)))
    # An unmarked extreme is reported before a decreasing marking.
    with pytest.raises(ValueError, match="^extremal element c is unmarked"):
        MarkedPoset(("a", "b", "c"), (("a", "b"), ("a", "c")),
                    (("a", 2), ("b", 1)))


@pytest.mark.parametrize("bad", [1.5, "1"])
@pytest.mark.parametrize("run", [order_points, order_count, chain_points, abs_verify])
def test_non_integer_marking_is_rejected(run, bad):
    # With b marked 1.5, order_points once listed x = 2 > 1.5, order_count
    # returned 2.5 and chain_points never returned.
    with pytest.raises(TypeError, match=f"^marking {bad!r} of element b is not an integer$"):
        run(MarkedPoset(("a", "x", "b"), (("a", "x"), ("x", "b")),
                        (("a", 0), ("b", bad))))


def test_poset_serialization():
    poset = fflv_marked_poset("odd", 1, (1,))
    data = poset.to_json()
    assert set(data) == {"elements", "covers", "markings"}
    assert len(data["elements"]) == 5
    assert data["markings"]["t1"] == 0
    # 1 and "1" both display as 1, so a marking would be lost.
    clash = MarkedPoset((1, "1"), ((1, "1"),), ((1, 0), ("1", 2)))
    with pytest.raises(ValueError, match="share the display name 1"):
        clash.to_json()


def test_marking_of_names_unmarked_and_unknown_elements():
    poset = fflv_marked_poset("odd", 1, (1,))
    assert poset.marking_of(("u", 1)) == 1
    with pytest.raises(ValueError, match=r"element \(1,1\) is unmarked"):
        poset.marking_of(L(1, 1))
    with pytest.raises(ValueError, match=r"unknown element \(2,2\)"):
        poset.marking_of(L(2, 2))
    with pytest.raises(ValueError, match="unknown element t2"):
        poset.marking_of(("t", 2))


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


@pytest.mark.parametrize("k, m, message", [
    (0, (), "k must be positive"),
    (-1, (), "k must be positive"),
    (2, (), "coefficient vector must have length k-1"),
    (2, (1, 1), "coefficient vector must have length k-1"),
    (2, (-1,), "coefficients must be nonnegative"),
    (3, (1, -2), "coefficients must be nonnegative"),
])
def test_n1_functions_check_k_and_m_alike(k, m, message):
    # n1_family_poset once blamed a decreasing marking for a negative
    # coefficient and the vector's length for k = 0.
    for call in (n1_formula, lambda k, m: n1_family_poset(k, m, "row1_end")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(k, m)


def test_n1_family_poset_names_type_a_elements():
    names = n1_family_poset(3, (1, 0), "row1_end").to_json()["elements"]
    assert names[:4] == ["a(1,1)", "a(1,2)", "a(2,2)", "w"]


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


def test_n1_report_refuses_a_sweep_that_checks_nothing():
    with pytest.raises(ValueError, match="max_k must be positive"):
        n1_report(0, 0)
    with pytest.raises(ValueError, match="max_coeff must be nonnegative"):
        n1_report(3, -1)
    assert [r["checked"] for r in n1_report(1, 0)["results"]] == [1] * len(n1_attachments)


def chain_count_report(max_k, max_coeff):
    """`n1_report` with every count taken as the number of chain points."""
    results = []
    for attachment in n1_attachments:
        checked, failure = 0, None
        cases = [(k, m) for k in range(1, max_k + 1)
                 for m in product(range(max_coeff + 1), repeat=k - 1)]
        for checked, (k, m) in enumerate(cases, start=1):
            got = len(chain_points(n1_family_poset(k, m, attachment)))
            if got != n1_formula(k, m):
                failure = {"k": k, "m": list(m), "count": got,
                           "formula": n1_formula(k, m)}
                break
        results.append({"attachment": attachment,
                        "status": "fail" if failure else "pass",
                        "checked": checked, "counterexample": failure})
    return {"max_k": max_k, "max_coeff": max_coeff, "results": results,
            "passing": [r["attachment"] for r in results if r["status"] == "pass"]}


def test_n1_report_enumerates_no_chain(monkeypatch):
    expected = chain_count_report(4, 3)

    def refuse(poset):
        raise AssertionError("n1_report enumerated chain points")

    monkeypatch.setattr(marked_poset, "chain_points", refuse)
    assert n1_report(4, 3) == expected


def test_n1_report_reaches_k5():
    small = {r["attachment"]: r for r in n1_report(4, 3)["results"]}
    report = n1_report(5, 3)
    assert report["passing"] == ["row1_end"]
    for r in report["results"]:
        if r["attachment"] == "row1_end":
            assert r["checked"] == 341 and r["counterexample"] is None
        else:
            assert r == small[r["attachment"]]
