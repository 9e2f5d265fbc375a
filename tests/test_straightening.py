"""Derivation operators and the straightening of violating monomials."""

import hashlib
import json
import random
import re
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflv import straightening
from fflv.polytope import Counterexample
from fflv.rootsys import DyckPath, RootLabel, build_poset, dyck_paths, wt_deg
from fflv.straightening import DerivationId, Straightener, _rank_tables


def L(row, col, barred=False):
    return RootLabel(row, col, barred)


def col_pos(label, n):
    """Position of the column in the alphabet 1 < ... < n < nbar < ... < 1bar."""
    return label.col if not label.barred else 2 * n + 1 - label.col


def single(eng, label, power=1):
    vec = [0] * eng.nvars
    vec[eng.labels.index(label)] = power
    return tuple(vec)


def poly_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        c2 = out.get(mono, 0) + c
        if c2:
            out[mono] = c2
        else:
            out.pop(mono, None)
    return out


def poly_mul(p, q):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            mono = tuple(a + b for a, b in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def paths_by_labels(eng):
    return {p.labels: p for p in dyck_paths(eng.poset)}


def row_sums(eng, s):
    """(s_{1,.}, ..., s_{n,.})"""
    return tuple(sum(s[r]) for r in _rank_tables(eng.n).row_slices)


def column_sum(eng, s, col, barred):
    """s_{.,col} or s_{.,colbar}: the sum over rows of one column."""
    return sum(s[k] for k in _rank_tables(eng.n).col_vars.get((col, barred), ()))


def succ_compare(eng, s, t):
    """1 if s comes strictly before t in the straightening order, -1 if
    strictly after, 0 if equal."""
    ks, kt = eng.order_key(s), eng.order_key(t)
    return (ks > kt) - (ks < kt)


def poly_to_json(eng, poly):
    """Term list sorted by the straightening order, greatest first."""
    monos = sorted(poly, key=eng.order_key, reverse=True)
    return [{"exponents": list(t), "coeff": poly[t]} for t in monos]


def word_to_json(word):
    return [{"op": str(op), "power": exp} for op, exp in word]


def reference_apply(eng, op, poly):
    """One derivation on exponent tuples, term by term: the oracle of the
    packed derivation loop."""
    out = {}
    for mono, coeff in poly.items():
        for k, (tgt, c) in eng.derivation_rules(op).items():
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


def reference_straighten(eng, weight, s, path):
    """Both words of build_delta_ops applied by reference_apply, rightmost
    factor first, to the pure power of f_{1,1bar}."""
    poly = {single(eng, L(1, 1, True), sum(s)): 1}
    for word in eng.build_delta_ops(s, path):
        for op, exp in reversed(word):
            for _ in range(exp):
                poly = reference_apply(eng, op, poly)
    return poly


def reference_compare(eng, s, t):
    """The straightening order as three rules applied in turn."""
    if s == t:
        return 0
    ds, dt = sum(s), sum(t)
    if ds != dt:
        return 1 if ds > dt else -1
    rs = row_sums(eng, s)[::-1]
    rt = row_sums(eng, t)[::-1]
    if rs != rt:
        return 1 if rs < rt else -1
    # Row n beats row n-1 and so on; in a row the rightmost column wins.
    rank = sorted(
        range(eng.nvars),
        key=lambda k: (eng.labels[k].row, col_pos(eng.labels[k], eng.n)),
        reverse=True,
    )
    for k in rank:
        if s[k] != t[k]:
            return 1 if s[k] > t[k] else -1
    return 0


@st.composite
def exponent_pairs(draw):
    n = draw(st.integers(1, 4))
    nvars = len(build_poset("odd", n))
    vec = st.tuples(*[st.integers(0, 3)] * nvars)
    s = draw(vec)
    # Mostly near-ties, so the row-sum and variable rules decide often.
    t = draw(st.one_of(vec, st.permutations(s).map(tuple)))
    return n, s, t


@settings(deadline=None, database=None, max_examples=300)
@given(exponent_pairs())
def test_order_key_matches_reference_compare(case):
    n, s, t = case
    eng = Straightener(n)
    assert succ_compare(eng, s, t) == reference_compare(eng, s, t)
    assert (eng.order_key(s) == eng.order_key(t)) == (s == t)


def test_order_key_checks_the_vector():
    eng = Straightener(1)
    assert eng.order_key((2, 1)) == (3, (-3,), (1, 2))
    with pytest.raises(ValueError, match="exponent vector has the wrong shape"):
        eng.order_key((1,))
    with pytest.raises(TypeError, match="exponent 0.5 at position 1 is not an integer"):
        eng.order_key((1, 0.5))
    with pytest.raises(ValueError, match="exponent -1 at position 0 is negative"):
        eng.order_key((-1, 2))


def test_succ_compare_degree_rule():
    eng = Straightener(2)
    deg2 = single(eng, L(1, 1), 2)
    deg1 = single(eng, L(1, 1, True))
    assert succ_compare(eng, deg2, deg1) == 1
    assert succ_compare(eng, deg1, deg2) == -1
    assert succ_compare(eng, deg1, deg1) == 0


def test_succ_compare_row_rule():
    eng = Straightener(2)
    f11 = single(eng, L(1, 1))
    f22 = single(eng, L(2, 2))
    # equal degree: the monomial concentrated in earlier rows wins
    assert succ_compare(eng, f11, f22) == 1
    assert succ_compare(eng, f22, f11) == -1


def test_succ_compare_variable_rule():
    eng = Straightener(2)
    f11 = single(eng, L(1, 1))
    f12 = single(eng, L(1, 2))
    # same degree and same row distribution: compare variable positions
    assert succ_compare(eng, f12, f11) == 1
    assert succ_compare(eng, f11, f12) == -1


def test_succ_compare_is_translation_invariant():
    eng = Straightener(2)
    rng = random.Random(11)
    for _ in range(60):
        s = tuple(rng.randint(0, 2) for _ in range(eng.nvars))
        t = tuple(rng.randint(0, 2) for _ in range(eng.nvars))
        u = tuple(rng.randint(0, 2) for _ in range(eng.nvars))
        base = succ_compare(eng, s, t)
        shifted = succ_compare(
            eng,
            tuple(a + b for a, b in zip(s, u)),
            tuple(a + b for a, b in zip(t, u)),
        )
        assert base == shifted
        assert succ_compare(eng, t, s) == -base


def test_row_and_column_sums():
    eng = Straightener(2)
    s = (1, 1, 2, 0, 0, 3)    # coords (1,1),(1,2),(1,2bar),(1,1bar),(2,2),(2,2bar)
    assert row_sums(eng, s) == (4, 3)
    assert column_sum(eng, s, 1, False) == 1
    assert column_sum(eng, s, 2, False) == 1
    assert column_sum(eng, s, 2, True) == 5
    assert column_sum(eng, s, 1, True) == 0


def test_root_derivation_rules_rank2():
    eng = Straightener(2)
    rules = eng.derivation_rules(eng.root_derivation(L(1, 1)))
    idx = {lab: k for k, lab in enumerate(eng.labels)}
    assert rules == {
        idx[L(1, 2)]: (idx[L(2, 2)], 1),
        idx[L(1, 2, True)]: (idx[L(2, 2, True)], 1),
        idx[L(1, 1, True)]: (idx[L(1, 2, True)], 1),
    }


def test_root_derivation_requires_subalgebra_root():
    eng = Straightener(2)
    with pytest.raises(ValueError):
        eng.root_derivation(L(1, 2))     # this one is odd-family only
    with pytest.raises(ValueError):
        eng.root_derivation(L(2, 2))


def test_special_derivation_closed_form():
    # Matrix commutators reduce to: the barred first-row generators map to
    # the last-column generators of the matching row, everything else to 0.
    for n in (1, 2, 3):
        eng = Straightener(n)
        rules = eng.derivation_rules(eng.special_derivation())
        expected = {
            eng.labels.index(L(1, j, True)): (eng.labels.index(L(j, n)), 1)
            for j in range(1, n + 1)
        }
        assert rules == expected


def test_bracket_subtracts_both_products():
    # The special derivation's only bracket partner has a row that is no
    # generator's column, so its rules never reach the second term.
    assert straightening._bracket({(1, 2): 1}, {(2, 1): 1}) == {(1, 1): 1, (2, 2): -1}


def test_derivation_rules_reject_unknown_kind():
    with pytest.raises(ValueError, match="^unknown derivation kind 'bogus'$"):
        Straightener(2).derivation_rules(DerivationId("bogus"))


def test_derivation_from_another_rank_names_its_root():
    # A derivation of rank 3 used at rank 2 once raised a bare KeyError.
    eng = Straightener(2)
    foreign = Straightener(3).root_derivation(L(1, 2))
    message = f"^{re.escape('(1,2) is not an even-family positive root of rank 2')}$"
    for call in (lambda: eng.derivation_rules(foreign),
                 lambda: eng.apply_derivation(foreign, {single(eng, L(1, 1)): 1}),
                 lambda: eng.apply_word(((foreign, 1),), {})):
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(ValueError, match="^None is not an even-family positive root of rank 2$"):
        eng.derivation_rules(DerivationId("root"))
    with pytest.raises(ValueError, match=re.escape(
            "the special derivation carries no root, got (1,1)")):
        eng.derivation_rules(DerivationId("special", L(1, 1)))


def test_derivation_root_must_be_a_root_label():
    # A plain tuple equals its RootLabel, so it would share the rule cache
    # entry of the labelled derivation; it is refused whichever comes first.
    eng = Straightener(2)
    mono = {single(eng, L(1, 2)): 1}
    labelled = eng.root_derivation(L(1, 1))
    expected = eng.apply_derivation(labelled, mono)
    assert expected
    message = "^" + re.escape("root (1, 1, False) of a derivation is not a RootLabel") + "$"
    for label_first in (True, False):
        straightening._packed_rules.cache_clear()
        if label_first:
            assert eng.apply_derivation(labelled, mono) == expected
        with pytest.raises(ValueError, match=message):
            eng.apply_derivation(DerivationId("root", (1, 1, False)), mono)
        assert eng.apply_derivation(labelled, mono) == expected
    with pytest.raises(ValueError, match=message):
        DerivationId._make(("root", (1, 1, False)))
    with pytest.raises(ValueError, match=re.escape("root (1, 2, False) of")):
        labelled._replace(root=(1, 2, False))
    assert labelled._replace(root=L(1, 2, True)) == eng.root_derivation(L(1, 2, True))
    assert str(labelled) == "d(1,1)"


def test_derivation_rules_are_a_fresh_dict():
    eng = Straightener(2)
    op = eng.root_derivation(L(1, 1))
    before = eng.apply_derivation(op, {single(eng, L(1, 2)): 1})
    eng.derivation_rules(op).clear()
    assert eng.derivation_rules(op)
    assert eng.apply_derivation(op, {single(eng, L(1, 2)): 1}) == before


def test_apply_derivation_is_a_derivation():
    eng = Straightener(2)
    rng = random.Random(5)
    ops = [
        eng.root_derivation(L(1, 1)),
        eng.root_derivation(L(1, 2, True)),
        eng.root_derivation(L(2, 2, True)),
        eng.special_derivation(),
    ]

    def random_poly():
        poly = {}
        for _ in range(2):
            mono = tuple(rng.randint(0, 2) for _ in range(eng.nvars))
            poly[mono] = poly.get(mono, 0) + rng.choice((-2, -1, 1, 3))
        return {m: c for m, c in poly.items() if c}

    for _ in range(25):
        p, q = random_poly(), random_poly()
        for op in ops:
            lhs = eng.apply_derivation(op, poly_mul(p, q))
            rhs = poly_add(
                poly_mul(eng.apply_derivation(op, p), q),
                poly_mul(p, eng.apply_derivation(op, q)),
            )
            assert lhs == rhs


def test_derivations_shift_weight_homogeneously():
    eng = Straightener(2)
    start = (0, 1, 1, 1, 0, 0)
    cases = [
        (eng.root_derivation(L(1, 1)), (1, -1, 0)),
        (eng.root_derivation(L(2, 2, True)), (0, 2, 0)),
        (eng.special_derivation(), (1, 0, 1)),
    ]
    for op, shift in cases:
        wt_in, deg_in = wt_deg(eng.poset, start)
        for mono in eng.apply_derivation(op, {start: 1}):
            wt_out, deg_out = wt_deg(eng.poset, mono)
            assert deg_out == deg_in
            assert tuple(a - b for a, b in zip(wt_in, wt_out)) == shift


def test_apply_word_checks_each_power_first():
    eng = Straightener(2)
    d11 = eng.root_derivation(L(1, 1))
    p = {single(eng, L(1, 1, True)): 1}
    # A negative power was once the identity, and 1.5 raised range()'s error.
    for word, error, message in (
        (((d11, -1),), ValueError, "power -1 of word factor 0 is negative"),
        (((d11, 1), (d11, 1.5)), TypeError,
         "power 1.5 of word factor 1 is not an integer"),
        (((d11, "2"),), TypeError, "power '2' of word factor 0 is not an integer"),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            eng.apply_word(word, p)
    # The powers are checked before the monomials.
    with pytest.raises(ValueError, match="power -2"):
        eng.apply_word(((d11, -2),), {(1, 2, 3): 1})
    assert eng.apply_word(((d11, 0),), p) == p
    assert eng.apply_word(((d11, 0), (eng.special_derivation(), 0)), p) == p


def test_apply_word_is_right_to_left():
    eng = Straightener(2)
    d11 = eng.root_derivation(L(1, 1))
    d22bar = eng.root_derivation(L(2, 2, True))
    p = {single(eng, L(1, 1, True)): 1}
    # rightmost factor acts first: d11 turns f(1,1bar) into f(1,2bar),
    # then d(2,2bar) turns that into f(1,1); the other order kills p.
    assert eng.apply_word(((d22bar, 1), (d11, 1)), p) == {
        single(eng, L(1, 1)): 1
    }
    assert eng.apply_word(((d11, 1), (d22bar, 1)), p) == {}


def test_apply_word_powers():
    eng = Straightener(2)
    d11 = eng.root_derivation(L(1, 1))
    p = {single(eng, L(1, 1, True), 2): 1}
    got = eng.apply_word(((d11, 2),), p)
    f12b_sq = single(eng, L(1, 2, True), 2)
    mixed = tuple(
        a + b
        for a, b in zip(
            single(eng, L(2, 2, True)), single(eng, L(1, 1, True))
        )
    )
    assert got == {f12b_sq: 2, mixed: 2}


def test_build_delta_ops_rank1():
    eng = Straightener(1)
    path = paths_by_labels(eng)[(L(1, 1), L(1, 1, True))]
    delta1, delta2 = eng.build_delta_ops((1, 2), path)
    assert delta1 == ((DerivationId("special"), 1),)
    assert delta2 == ()


def test_build_delta_ops_rank2():
    eng = Straightener(2)
    path = paths_by_labels(eng)[
        (L(1, 1), L(1, 2), L(1, 2, True), L(2, 2, True))
    ]
    delta1, delta2 = eng.build_delta_ops((1, 0, 0, 0, 0, 1), path)
    assert delta1 == (
        (DerivationId("root", L(1, 1)), 2),
        (DerivationId("root", L(1, 2, True)), 1),
    )
    assert delta2 == ()


def test_straighten_frozen_rank1():
    eng = Straightener(1)
    path = paths_by_labels(eng)[(L(1, 1), L(1, 1, True))]
    assert eng.straighten((1,), (1, 1), path) == {(1, 1): 2}
    assert eng.straighten((1,), (0, 2), path) == {(0, 2): 1}


def test_straighten_frozen_rank2():
    eng = Straightener(2)
    paths = paths_by_labels(eng)
    pa = paths[(L(1, 1), L(1, 2), L(1, 2, True), L(1, 1, True))]
    pb = paths[(L(1, 1), L(1, 2), L(1, 2, True), L(2, 2, True))]
    pc = paths[(L(1, 1), L(1, 2), L(2, 2), L(2, 2, True))]
    assert eng.straighten((1, 0), (1, 0, 0, 1, 0, 0), pa) == {
        (1, 0, 0, 1, 0, 0): 2
    }
    assert eng.straighten((1, 0), (1, 0, 0, 0, 0, 1), pb) == {
        (1, 0, 0, 0, 0, 1): 2
    }
    assert eng.straighten((1, 0), (0, 1, 1, 0, 0, 0), pb) == {
        (0, 1, 1, 0, 0, 0): 2,
        (0, 0, 0, 1, 1, 0): 2,
    }
    assert eng.straighten((1, 0), (0, 0, 1, 0, 0, 1), pb) == {
        (0, 0, 1, 0, 0, 1): 6
    }
    assert eng.straighten((1, 0), (0, 1, 0, 0, 1, 0), pc) == {
        (0, 1, 0, 0, 1, 0): 4
    }
    assert eng.straighten((1, 0), (0, 0, 0, 0, 2, 0), pc) == {
        (0, 0, 0, 0, 2, 0): 4
    }


def test_verify_passes_on_frozen_cases():
    eng = Straightener(2)
    paths = paths_by_labels(eng)
    pb = paths[(L(1, 1), L(1, 2), L(1, 2, True), L(2, 2, True))]
    assert eng.verify((1, 0), (0, 1, 1, 0, 0, 0), pb) is None
    assert eng.verify((0, 1), (0, 1, 1, 0, 0, 0), pb) is None


def test_verify_failure_kinds(monkeypatch):
    # A doctored straightened polynomial reaches each failure kind.
    eng = Straightener(2)
    pb = paths_by_labels(eng)[
        (L(1, 1), L(1, 2), L(1, 2, True), L(2, 2, True))
    ]
    s, lower, bigger = (0, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 0), (0, 0, 2, 0, 0, 0)
    assert eng.straighten((1, 0), s, pb) == {lower: 2, s: 2}
    assert eng.order_key(lower) < eng.order_key(s) < eng.order_key(bigger)
    for poly, failure in [
        ({lower: 2}, Counterexample("leading_term_missing", s)),
        ({s: 0, lower: 2}, Counterexample("leading_term_missing", s)),
        ({s: 2, lower: 2, bigger: 1}, Counterexample("term_not_smaller", bigger)),
    ]:
        packed = {eng._pack(t): c for t, c in poly.items()}
        monkeypatch.setattr(eng, "_straighten_packed", lambda *args, packed=packed: packed)
        assert eng.verify((1, 0), s, pb) == failure


def reference_verify(eng, s, poly):
    """verify on a polynomial of exponent tuples through order_key: the
    first term in iteration order that is not smaller than s fails."""
    if not poly.get(s):
        return Counterexample("leading_term_missing", s)
    lead = eng.order_key(s)
    for t in poly:
        if t != s and eng.order_key(t) > lead:
            return Counterexample("term_not_smaller", t)
    return None


def random_monomial(rng, nvars, degree):
    vec = [0] * nvars
    for _ in range(degree):
        vec[rng.randrange(nvars)] += 1
    return tuple(vec)


def test_pack_order_is_the_straightening_order():
    rng = random.Random(31)
    for n in range(1, 5):
        eng = Straightener(n)
        pairs = []
        for _ in range(400):
            s = random_monomial(rng, eng.nvars, rng.randint(0, 12))
            # Mostly near-ties, so the row-sum and variable rules decide often.
            t = rng.choice([random_monomial(rng, eng.nvars, sum(s)),
                            tuple(rng.sample(s, len(s)))])
            pairs.append((s, t))
        # Degree 255 all in one row leaves that row's byte at 0.
        for sl in _rank_tables(n).row_slices:
            row = range(eng.nvars)[sl]
            full = [0] * eng.nvars
            full[row[0]] = 255
            split = [0] * eng.nvars
            split[row[-1]], split[row[0]] = 200, 55
            pairs += [(tuple(full), tuple(split)),
                      (tuple(full), random_monomial(rng, eng.nvars, 255)),
                      (tuple(full), tuple(full))]
        for s, t in pairs:
            ps, pt = eng._pack(s), eng._pack(t)
            assert eng._unpack(ps) == s and eng._unpack(pt) == t
            assert (ps < pt) == (eng.order_key(s) < eng.order_key(t))
            assert (ps == pt) == (s == t)


def test_verify_matches_reference_verify(monkeypatch):
    cases = [(Straightener(n), case) for n in (1, 2, 3) for case in straightening_sweep(n, 2)]
    eng4 = Straightener(4)
    paths4 = [p for p in dyck_paths(eng4.poset) if p.start == L(1, 1) and p.end.barred]
    rng = random.Random(2024)
    cases += [(eng4, random_violating_vector(rng, eng4, paths4, k % 9)) for k in range(200)]
    assert len(cases) == 9 + 375 + 17150 + 200
    doctored = []
    for k, (eng, (weight, s, path)) in enumerate(cases):
        poly = eng.straighten(weight, s, path)
        assert eng.verify(weight, s, path) == reference_verify(eng, s, poly)
        if k % 25 == 0:
            # A same-degree term of any order, then s dropped or zeroed.
            bad = dict(poly)
            bad[tuple(rng.sample(s, len(s)))] = rng.choice((1, -1))
            drop = rng.random()
            if drop < 0.15:
                bad.pop(s, None)
            elif drop < 0.3:
                bad[s] = 0
            doctored.append((eng, weight, s, path, bad))
    for eng, weight, s, path, bad in doctored:
        packed = {eng._pack(t): c for t, c in bad.items()}
        monkeypatch.setattr(eng, "_straighten_packed", lambda *args, packed=packed: packed)
        assert eng.verify(weight, s, path) == reference_verify(eng, s, bad)
        monkeypatch.undo()
    kinds = {getattr(reference_verify(eng, s, bad), "kind", None)
             for eng, _, s, _, bad in doctored}
    assert kinds == {None, "leading_term_missing", "term_not_smaller"}


@pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
@pytest.mark.parametrize("pos", [1, 5])
def test_non_integer_exponents_are_rejected(bad, pos):
    # A float or string exponent once raised an unrelated TypeError or
    # AttributeError, and build_delta_ops returned powers of 1.5.
    eng = Straightener(2)
    pb = paths_by_labels(eng)[(L(1, 1), L(1, 2), L(1, 2, True), L(2, 2, True))]
    vec = [0, 1, 1, 0, 0, 0]
    vec[pos] = bad
    message = f"^exponent {re.escape(repr(bad))} at position {pos} is not an integer$"
    for call in (eng.straighten, eng.verify):
        with pytest.raises(TypeError, match=message):
            call((1, 0), tuple(vec), pb)
    with pytest.raises(TypeError, match=message):
        eng.build_delta_ops(tuple(vec), pb)


def test_verify_lower_order_terms_are_smaller():
    eng = Straightener(2)
    pb = paths_by_labels(eng)[
        (L(1, 1), L(1, 2), L(1, 2, True), L(2, 2, True))
    ]
    poly = eng.straighten((1, 0), (0, 1, 1, 0, 0, 0), pb)
    lead = (0, 1, 1, 0, 0, 0)
    for mono in poly:
        if mono != lead:
            assert succ_compare(eng, lead, mono) == 1


def test_straighten_rejects_bad_input():
    eng = Straightener(2)
    paths = paths_by_labels(eng)
    pb = paths[(L(1, 1), L(1, 2), L(1, 2, True), L(2, 2, True))]
    diag = paths[(L(1, 1), L(1, 2), L(2, 2))]
    row2 = paths[(L(2, 2), L(2, 2, True))]
    rank1 = paths_by_labels(Straightener(1))[(L(1, 1), L(1, 1, True))]
    cases = [
        ((1, 0), (0, 1, 1, 0, 0, 0), rank1, "path belongs to a different poset"),
        ((1, 0), (0, 1, 1, 0, 0), pb, "exponent vector has the wrong shape"),
        ((1, 0), (0, 1, 1, 0, -1, 1), pb, "exponent -1 at position 4 is negative"),
        ((1, 0), (0, 0, 0, 0, 1, 1), row2, "path must start at the top-left diagonal root"),
        ((1, 0), (0, 1, 1, 0, 0, 0), diag, "path must end at a barred root"),
        ((1, 0), (0, 1, 0, 0, 1, 0), pb, "exponent vector is not supported on the path"),
        ((2, 0), (0, 1, 1, 0, 0, 0), pb, "exponent vector does not violate the path bound"),
        # A path that is not a chain of rank-2 odd roots, each covering the last.
        ((1, 0), (1, 0, 1, 0, 0, 0), DyckPath("odd", 2, (L(1, 1), L(1, 2, True))),
         "path label (1,2bar) does not cover (1,1)"),
        ((1, 0), (1, 0, 0, 0, 0, 0), DyckPath("odd", 2, (L(1, 1), L(1, 7, True))),
         "path label (1,7bar) is not a root of the rank-2 odd poset"),
        ((1, 0), (1, 0, 0, 0, 0, 0), DyckPath("odd", 2, (L(1, 1), L(5, 5, True))),
         "path label (5,5bar) is not a root of the rank-2 odd poset"),
        # A chain of covers that ends at a barred root off the diagonal.
        ((1, 0), (1, 0, 1, 0, 0, 0), DyckPath("odd", 2, (L(1, 1), L(1, 2), L(1, 2, True))),
         "path must end at a barred diagonal root, not at (1,2bar)"),
    ]
    for weight, s, path, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            eng.straighten(weight, s, path)
        if "bound" not in message:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                eng.build_delta_ops(s, path)
    # The weight is checked before the path bound: a negative or too long
    # weight would otherwise let s pass the bound check.
    eng1 = Straightener(1)
    for weight, message in (((-3,), "fundamental coordinates must be nonnegative"),
                            ((0, 0), "weight length must equal the rank")):
        for call in (eng1.straighten, eng1.verify):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(weight, (1, 0), rank1)


def test_exhaustive_sweep_small_ranks():
    for n in (1, 2):
        eng = Straightener(n)
        paths = [
            p
            for p in dyck_paths(eng.poset)
            if p.start == L(1, 1) and p.end.barred
        ]
        for total in range(2 * n + 1):
            weight = (total,) + (0,) * (n - 1)
            sigma = total + 1
            for path in paths:
                idxs = [eng.labels.index(lab) for lab in path.labels]
                for split in combinations_with_replacement(
                    range(len(idxs)), sigma
                ):
                    vec = [0] * eng.nvars
                    for pos in split:
                        vec[idxs[pos]] += 1
                    assert eng.verify(weight, tuple(vec), path) is None


def test_serialization():
    eng = Straightener(2)
    pb = paths_by_labels(eng)[
        (L(1, 1), L(1, 2), L(1, 2, True), L(2, 2, True))
    ]
    poly = eng.straighten((1, 0), (0, 1, 1, 0, 0, 0), pb)
    assert poly_to_json(eng, poly) == [
        {"exponents": [0, 1, 1, 0, 0, 0], "coeff": 2},
        {"exponents": [0, 0, 0, 1, 1, 0], "coeff": 2},
    ]
    word, _ = eng.build_delta_ops((1, 0, 0, 0, 0, 1), pb)
    assert word_to_json(word) == [
        {"op": "d(1,1)", "power": 2},
        {"op": "d(1,2bar)", "power": 1},
    ]
    assert str(DerivationId("special")) == "d_special"


def straightening_sweep(n, max_coeff):
    """(weight, vector, path) for every vector `fflv verify straightening` visits."""
    eng = Straightener(n)
    paths = [p for p in dyck_paths(eng.poset) if p.start == L(1, 1) and p.end.barred]
    for bound in range(n * max_coeff + 1):
        weight = (bound,) + (0,) * (n - 1)
        for path in paths:
            idxs = [eng.labels.index(lab) for lab in path.labels]
            for split in combinations_with_replacement(range(len(idxs)), bound + 1):
                vec = [0] * eng.nvars
                for pos in split:
                    vec[idxs[pos]] += 1
                yield weight, tuple(vec), path


def sha256_json(payload):
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_derivation_rules_pinned():
    payload = []
    for n in range(1, 6):
        eng = Straightener(n)
        ops = [eng.root_derivation(lab) for lab in build_poset("even", n).labels()]
        ops.append(eng.special_derivation())
        for op in ops:
            payload.append([n, str(op), sorted(eng.derivation_rules(op).items())])
    assert sha256_json(payload) == (
        "882e604b4709c2ef3fe7b4ab70f00364a6ab5116f15455d2ff93aa87fc439d8c"
    )


def test_straightened_polynomials_pinned():
    payload = []
    for n, max_coeff in ((1, 2), (2, 2), (3, 1)):
        eng = Straightener(n)
        for weight, vec, path in straightening_sweep(n, max_coeff):
            payload.append(poly_to_json(eng, eng.straighten(weight, vec, path)))
    assert len(payload) == 2474
    assert sha256_json(payload) == (
        "fcdde34caf156f85535d6ca76e48ffb612d11dd54f3af6bef5958ead6dad1d1e"
    )


def random_violating_vector(rng, eng, paths, bound):
    """(weight, vector, path): bound + 1 units on uniformly chosen positions
    of a uniformly chosen path, the bound carried by the first coordinate."""
    path = rng.choice(paths)
    positions = [eng.labels.index(lab) for lab in path.labels]
    vec = [0] * eng.nvars
    for _ in range(bound + 1):
        vec[rng.choice(positions)] += 1
    return (bound,) + (0,) * (eng.n - 1), tuple(vec), path


def test_straighten_matches_reference_rank4():
    eng = Straightener(4)
    paths = [p for p in dyck_paths(eng.poset) if p.start == L(1, 1) and p.end.barred]
    rng = random.Random(2024)
    for k in range(200):
        weight, vec, path = random_violating_vector(rng, eng, paths, k % 9)
        got = eng.straighten(weight, vec, path)
        # Same terms in the same order: verify reports the first bad term.
        assert list(got.items()) == list(reference_straighten(eng, weight, vec, path).items())


@st.composite
def derivation_cases(draw):
    n = draw(st.integers(1, 4))
    eng = Straightener(n)
    ops = [eng.root_derivation(lab) for lab in build_poset("even", n).labels()]
    ops.append(eng.special_derivation())
    op = draw(st.sampled_from(ops))
    mono = st.tuples(*[st.integers(0, 4)] * eng.nvars)
    coeff = st.integers(-5, 5).filter(bool)
    poly = draw(st.dictionaries(mono, coeff, max_size=6))
    return eng, op, poly


@settings(deadline=None, database=None, max_examples=300)
@given(derivation_cases())
def test_apply_derivation_matches_reference(case):
    eng, op, poly = case
    got = eng.apply_derivation(op, poly)
    assert list(got.items()) == list(reference_apply(eng, op, poly).items())
    assert eng.apply_word(((op, 2),), poly) == reference_apply(
        eng, op, reference_apply(eng, op, poly)
    )


def test_degree_above_byte_limit_raises():
    eng = Straightener(1)
    path = paths_by_labels(eng)[(L(1, 1), L(1, 1, True))]
    with pytest.raises(ArithmeticError, match="255"):
        eng.straighten((255,), (100, 156), path)
    special = eng.special_derivation()
    with pytest.raises(ArithmeticError, match="255"):
        eng.apply_word(((special, 1),), {(100, 156): 1})
    with pytest.raises(ArithmeticError, match="255"):
        eng.apply_word((), {(256, 0): 1})


def test_apply_word_rejects_malformed_monomials():
    eng = Straightener(1)
    special = eng.special_derivation()
    with pytest.raises(ValueError, match="monomial has the wrong shape"):
        eng.apply_word(((special, 1),), {(1, 2, 3): 1})
    with pytest.raises(ValueError):
        eng.apply_derivation(special, {(2, -1): 1})
    # Each entry is checked before packing, which once raised bytes()'s
    # range error for a negative entry and a bare TypeError for a float.
    for mono, error, message in (
        ((2, -1), ValueError, "exponent -1 at position 1 is negative"),
        ((-3, 0), ValueError, "exponent -3 at position 0 is negative"),
        ((1.5, 1), TypeError, "exponent 1.5 at position 0 is not an integer"),
        ((1, 1.0), TypeError, "exponent 1.0 at position 1 is not an integer"),
        ((-1, "1"), TypeError, "exponent '1' at position 1 is not an integer"),
    ):
        for call in (lambda: eng.apply_derivation(special, {mono: 1}),
                     lambda: eng.apply_word((), {(0, 1): 2, mono: 1})):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                call()


def test_every_entry_point_names_a_negative_entry():
    eng = Straightener(2)
    pb = paths_by_labels(eng)[(L(1, 1), L(1, 2), L(1, 2, True), L(2, 2, True))]
    s = (0, 1, -2, 0, 0, 3)
    message = "^exponent -2 at position 2 is negative$"
    for call in (lambda: eng.straighten((1, 0), s, pb),
                 lambda: eng.verify((1, 0), s, pb),
                 lambda: list(eng.verify_many([((1, 0), s, pb)])),
                 lambda: eng.build_delta_ops(s, pb),
                 lambda: eng.apply_word((), {s: 1})):
        with pytest.raises(ValueError, match=message):
            call()


def test_apply_derivation_ignores_zero_terms():
    eng = Straightener(1)
    special = eng.special_derivation()
    assert eng.apply_derivation(special, {(0, 1): 0}) == {}
    assert eng.apply_derivation(special, {(0, 1): 0, (1, 1): 3}) == {(2, 0): 3}


def test_degree_at_byte_limit_straightens():
    eng = Straightener(1)
    path = paths_by_labels(eng)[(L(1, 1), L(1, 1, True))]
    assert eng.verify((254,), (100, 155), path) is None
    assert eng.verify((0,), (255, 0), path) is None
    assert eng.straighten((0,), (0, 255), path) == {(0, 255): 1}


def test_tables_and_plans_are_shared():
    a, b = Straightener(4), Straightener(4)
    assert a._tables is b._tables
    assert a.labels is b.labels and a.poset is b.poset
    paths = [p for p in dyck_paths(a.poset) if p.start == L(1, 1) and p.end.barred]
    for path in paths:
        s = single(a, path.end)
        assert a._check_path_point(s, path) is b._check_path_point(s, path)


def rank4_cases():
    """(engine, cases): 200 seeded rank-4 vectors whose degree goes up and
    down, path bounds 0..8."""
    eng4 = Straightener(4)
    paths4 = [p for p in dyck_paths(eng4.poset) if p.start == L(1, 1) and p.end.barred]
    rng = random.Random(2024)
    return eng4, [random_violating_vector(rng, eng4, paths4, k % 9) for k in range(200)]


def reference_cases():
    """(engine, cases): every vector `straightening_sweep(n, 2)` visits for
    n <= 3, and the 200 seeded rank-4 vectors of `rank4_cases`."""
    groups = [(Straightener(n), list(straightening_sweep(n, 2))) for n in (1, 2, 3)]
    groups.append(rank4_cases())
    return groups


def test_verify_many_matches_verify():
    groups = reference_cases()
    assert sum(len(cases) for _, cases in groups) == 17734
    for eng, cases in groups:
        assert list(eng.verify_many(cases)) == [eng.verify(*case) for case in cases]


def test_verify_many_matches_verify_in_any_degree_order():
    # Shuffled, the degree goes down as well as up, so the prefix trie is
    # dropped and rebuilt many times; equal degrees also come apart.
    eng = Straightener(3)
    cases = list(straightening_sweep(3, 1))
    random.Random(7).shuffle(cases)
    degrees = [sum(s) for _, s, _ in cases]
    assert any(a > b for a, b in zip(degrees, degrees[1:]))
    assert list(eng.verify_many(cases)) == [eng.verify(*case) for case in cases]
    assert list(eng.verify_many(cases[::-1])) == [eng.verify(*case) for case in cases[::-1]]
    assert list(eng.verify_many([])) == []


def doctored_results(monkeypatch, doctored):
    """With `_packed_rules` replaced by doctored, the results of pruned
    `verify` over `straightening_sweep(2, 2)` and the rank-4 vectors of
    `rank4_cases`, one list per group, after checking that `_check_lead` of
    the full polynomial and `verify_many` give the same.  Operator words
    are cached per path, so the cache is cleared on both sides of the
    doctored run."""
    groups = [(Straightener(2), list(straightening_sweep(2, 2))), rank4_cases()]
    results = []
    straightening._path_plan.cache_clear()
    try:
        monkeypatch.setattr(straightening, "_packed_rules", doctored)
        for eng, cases in groups:
            pruned = [eng.verify(*case) for case in cases]
            full = [eng._check_lead(eng._straighten_packed(*case), case[1]) for case in cases]
            assert pruned == full == list(eng.verify_many(cases))
            results.append(pruned)
    finally:
        monkeypatch.undo()
        straightening._path_plan.cache_clear()
    return results


def test_verify_many_matches_verify_on_doctored_rules(monkeypatch):
    # A rule coefficient alone changed to -1, 2 or 3 times its value makes no
    # case fail: the lead never cancels and no greater term appears.  So the
    # first rule of d(1,1) here moves its unit to variable 2 instead, which
    # reaches both failure kinds.
    real = straightening._packed_rules
    op = DerivationId("root", L(1, 1))

    def doctored(n, rule_op):
        rules = real(n, rule_op)
        if rule_op != op:
            return rules
        tables = _rank_tables(n)
        (k, _, c), *rest = rules
        return ((k, tables.units[2] - tables.units[k], c), *rest)

    for results in doctored_results(monkeypatch, doctored):
        kinds = {failure.kind for failure in results if failure is not None}
        assert kinds == {"leading_term_missing", "term_not_smaller"}
    eng = Straightener(2)
    cases = list(straightening_sweep(2, 2))
    assert list(eng.verify_many(cases)) == [None] * len(cases)


def test_zero_rule_coefficient_reports_missing_lead(monkeypatch):
    # A rule coefficient of 0 makes a contribution of 0 to a term the output
    # may not hold yet; the term is dropped, and a case whose lead it was
    # reports it missing.
    real = straightening._packed_rules
    op = DerivationId("root", L(1, 1))

    def doctored(n, rule_op):
        rules = real(n, rule_op)
        if rule_op != op:
            return rules
        (k, shift, _), *rest = rules
        return ((k, shift, 0), *rest)

    counts = []
    for results in doctored_results(monkeypatch, doctored):
        kinds = [failure.kind for failure in results if failure is not None]
        assert set(kinds) == {"leading_term_missing"}
        counts.append((len(results), len(kinds)))
    assert counts == [(375, 70), (200, 31)]


def test_verify_many_validates_every_case():
    eng = Straightener(1)
    path = paths_by_labels(eng)[(L(1, 1), L(1, 1, True))]
    good = ((0,), (1, 0), path)
    for bad, error in ((((1,), (1, 0), path), ValueError),
                       (((0,), (1, 0, 0), path), ValueError),
                       (((254,), (100, 156), path), ArithmeticError)):
        results = eng.verify_many([good, bad])
        assert next(results) is None
        with pytest.raises(error):
            next(results)


def pruning_cases():
    """(engine, cases): `straightening_sweep(2, 2)`, `straightening_sweep(3, 1)`
    and the 200 seeded rank-4 vectors of `rank4_cases`."""
    groups = [(Straightener(n), list(straightening_sweep(n, c))) for n, c in ((2, 2), (3, 1))]
    groups.append(rank4_cases())
    return groups


def test_pruned_derivation_keeps_every_term_that_reaches_lead():
    # With a lead, _derive keeps exactly the terms of the full polynomial at
    # or above it, with their coefficients and in their order.  Besides the
    # packed s, the leads are terms of the full polynomial and the integers
    # just below them, so that many terms lie above the lead and their
    # order shows.
    rng = random.Random(11)
    orders = dropped = 0
    for eng, cases in pruning_cases():
        width = eng._tables.width
        for weight, s, path in cases:
            sigma, factors = eng._checked_factors(weight, s, path)
            start = {eng._start(sigma): 1}
            full = straightening._derive(start, factors, width)
            assert full == eng._straighten_packed(weight, s, path)
            terms = list(full)
            picked = rng.sample(terms, min(2, len(terms)))
            leads = {eng._pack(s), min(terms)} | {t - 1 for t in picked}
            for lead in leads:
                pruned = straightening._derive(start, factors, width, lead)
                assert list(pruned.items()) == [(t, c) for t, c in full.items() if t >= lead]
                orders += 1 < len(pruned) < len(full)
            lead_only = eng._straighten_packed(weight, s, path, True)
            assert lead_only == {eng._pack(s): full[eng._pack(s)]}
            dropped += len(full) > 1
    # Not vacuous: of the 2,665 cases, 1,397 have terms below s to drop,
    # and 737 pruned derivations keep two or more terms and drop some.
    assert (orders, dropped) == (737, 1397)
