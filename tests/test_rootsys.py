"""Root poset construction, saturated chains, and coordinate systems."""

import pytest

from fflv.rootsys import (
    RootLabel,
    build_poset,
    dyck_paths,
    fundamental_from_partition,
    fundamental_to_eps,
    partition_from_fundamental,
    path_bound,
    simple_roots_eps,
    wt_deg,
)


def L(row, col, barred=False):
    return RootLabel(row, col, barred)


def test_element_and_cover_counts():
    expected = {
        ("odd", 1): (2, 1),
        ("odd", 2): (6, 6),
        ("odd", 3): (12, 15),
        ("even", 1): (1, 0),
        ("even", 2): (4, 3),
        ("even", 3): (9, 10),
    }
    for (family, n), (size, ncovers) in expected.items():
        poset = build_poset(family, n)
        assert len(poset) == size
        assert len(poset.covers) == ncovers


def test_canonical_label_order_rank2():
    assert build_poset("odd", 2).labels() == (
        L(1, 1),
        L(1, 2),
        L(1, 2, True),
        L(1, 1, True),
        L(2, 2),
        L(2, 2, True),
    )
    assert build_poset("even", 2).labels() == (
        L(1, 1),
        L(1, 2, True),
        L(1, 1, True),
        L(2, 2, True),
    )


def test_covers_match_alphabet_reconstruction():
    # Independent reconstruction: within a row, consecutive labels in the
    # column alphabet are covers; across rows, equal columns one row apart.
    for family in ("odd", "even"):
        for n in range(1, 5):
            poset = build_poset(family, n)
            labels = poset.labels()
            by_row: dict[int, list[RootLabel]] = {}
            for lab in labels:
                by_row.setdefault(lab.row, []).append(lab)
            expected = set()
            for row in by_row.values():
                ordered = sorted(row, key=lambda lab: lab.col_pos(n))
                for a, b in zip(ordered, ordered[1:]):
                    expected.add((a, b))
            for lab in labels:
                down = RootLabel(lab.row + 1, lab.col, lab.barred)
                if down in poset:
                    expected.add((lab, down))
            got = {
                (poset.roots[a].label, poset.roots[b].label)
                for a, b in poset.covers
            }
            assert got == expected


def test_even_labels_embed_in_odd():
    for n in range(1, 5):
        odd = set(build_poset("odd", n).labels())
        even = build_poset("even", n)
        assert set(even.labels()) < odd
        odd_eps = {r.label: r.eps for r in build_poset("odd", n).roots}
        for root in even.roots:
            assert root.eps == odd_eps[root.label]


def test_eps_coordinates_odd_rank2():
    eps = {r.label: r.eps for r in build_poset("odd", 2).roots}
    assert eps[L(1, 1)] == (1, -1, 0)
    assert eps[L(1, 2)] == (1, 0, -1)
    assert eps[L(1, 2, True)] == (1, 1, 0)
    assert eps[L(1, 1, True)] == (2, 0, 0)
    assert eps[L(2, 2)] == (0, 1, -1)
    assert eps[L(2, 2, True)] == (0, 2, 0)


def test_alpha_decomposition_matches_eps():
    for family in ("odd", "even"):
        for n in range(1, 5):
            simple = simple_roots_eps(n)
            for root in build_poset(family, n).roots:
                combo = [0] * (n + 1)
                for c, vec in zip(root.alpha, simple):
                    for k, e in enumerate(vec):
                        combo[k] += c * e
                assert tuple(combo) == root.eps


def test_path_counts():
    table = {
        ("odd", 1): 2,
        ("odd", 2): 7,
        ("odd", 3): 21,
        ("even", 1): 1,
        ("even", 2): 4,
        ("even", 3): 12,
    }
    for (family, n), count in table.items():
        assert len(dyck_paths(build_poset(family, n))) == count


def test_paths_are_saturated_chains():
    for family in ("odd", "even"):
        for n in (1, 2, 3):
            poset = build_poset(family, n)
            covers = {
                (poset.roots[a].label, poset.roots[b].label)
                for a, b in poset.covers
            }
            first_in_row = {}
            for lab in poset.labels():
                cur = first_in_row.get(lab.row)
                if cur is None or lab.col_pos(n) < cur.col_pos(n):
                    first_in_row[lab.row] = lab
            paths = dyck_paths(poset)
            assert len(set(p.labels for p in paths)) == len(paths)
            for p in paths:
                assert p.start == first_in_row[p.start.row]
                assert p.end.row == p.end.col
                assert p.end_class == ("barred" if p.end.barred else "diagonal")
                for a, b in zip(p.labels, p.labels[1:]):
                    assert (a, b) in covers


def test_path_enumeration_complete():
    # Re-enumerate all saturated chains from a row-initial element to a
    # diagonal or antidiagonal one by a direct walk over the covers.
    for family in ("odd", "even"):
        for n in (1, 2, 3):
            poset = build_poset(family, n)
            succ: dict[RootLabel, list[RootLabel]] = {}
            for a, b in poset.covers:
                succ.setdefault(poset.roots[a].label, []).append(
                    poset.roots[b].label
                )
            rows: dict[int, list[RootLabel]] = {}
            for lab in poset.labels():
                rows.setdefault(lab.row, []).append(lab)
            starts = [
                min(row, key=lambda lab: lab.col_pos(n))
                for row in rows.values()
            ]
            found = set()

            def grow(chain):
                last = chain[-1]
                if last.row == last.col:
                    found.add(tuple(chain))
                for nxt in succ.get(last, ()):
                    grow(chain + [nxt])

            for s in starts:
                grow([s])
            assert found == {p.labels for p in dyck_paths(poset)}


def test_paths_sorted_canonically():
    for family in ("odd", "even"):
        poset = build_poset(family, 3)
        paths = dyck_paths(poset)
        keys = [tuple(poset.index(lab) for lab in p.labels) for p in paths]
        assert keys == sorted(keys)


def test_path_bounds():
    poset = build_poset("odd", 2)
    paths = {p.labels: p for p in dyck_paths(poset)}
    m = (5, 7)
    assert path_bound(paths[(L(1, 1),)], m) == 5
    assert path_bound(paths[(L(2, 2), L(2, 2, True))], m) == 7
    assert path_bound(paths[(L(1, 1), L(1, 2), L(2, 2))], m) == 12
    assert (
        path_bound(paths[(L(1, 1), L(1, 2), L(1, 2, True), L(2, 2, True))], m)
        == 12
    )
    with pytest.raises(ValueError):
        path_bound(paths[(L(1, 1),)], (5,))


def test_wt_deg():
    poset = build_poset("odd", 2)
    assert wt_deg(poset, (1, 0, 0, 0, 0, 0)) == ((1, -1, 0), 1)
    assert wt_deg(poset, (0, 0, 0, 1, 0, 1)) == ((2, 2, 0), 2)
    assert wt_deg(poset, (0, 0, 0, 0, 0, 0)) == ((0, 0, 0), 0)
    with pytest.raises(ValueError):
        wt_deg(poset, (0, 0))


def test_weight_coordinate_conversions():
    assert fundamental_to_eps((1, 1)) == (2, 1, 0)
    assert partition_from_fundamental((1, 1)) == (2, 1)
    assert fundamental_from_partition((2, 1)) == (1, 1)
    for part in ((3, 1, 0), (2, 2, 1), (0, 0, 0)):
        assert partition_from_fundamental(fundamental_from_partition(part)) == part
    with pytest.raises(ValueError):
        fundamental_from_partition((1, 2))


def test_label_display_and_serialization():
    assert str(L(1, 2)) == "(1,2)"
    assert str(L(1, 2, True)) == "(1,2bar)"
    assert L(1, 2, True).to_json() == {"row": 1, "col": "2bar"}
    poset = build_poset("even", 2)
    data = poset.to_json()
    assert set(data) == {"family", "n", "elements", "covers"}
    assert data["elements"][0] == {"row": 1, "col": "1"}
    assert all(len(c) == 2 for c in data["covers"])
    path = dyck_paths(poset)[0]
    assert path.to_json() == [lab.to_json() for lab in path.labels]


def test_build_poset_rejects_bad_input():
    with pytest.raises(ValueError):
        build_poset("unknown", 2)
    with pytest.raises(ValueError):
        build_poset("odd", 0)
    # A cached good call for the family must not let a bad rank through.
    for family in ("odd", "even"):
        build_poset(family, 2)
        for n in (0, -1):
            with pytest.raises(ValueError):
                build_poset(family, n)
    with pytest.raises(ValueError):
        build_poset("unknown", 2)


def test_build_poset_is_shared():
    assert build_poset("odd", 3) is build_poset("odd", 3)
    assert build_poset("even", 3) is not build_poset("odd", 3)
