"""Root poset construction, saturated chains, and coordinate systems."""

import ast
import copy
import pickle
import re
from pathlib import Path

import pytest

from fflv.marked_poset import MarkedPoset
from fflv.polytope import IneqRow, InequalitySystem
from fflv.rootsys import (
    DyckPath,
    RootLabel,
    RootPoset,
    _Frozen,
    build_poset,
    dyck_paths,
    fundamental_from_partition,
    fundamental_to_eps,
    partition_from_fundamental,
    path_bound,
    wt_deg,
)


def L(row, col, barred=False):
    return RootLabel(row, col, barred)


def col_pos(label, n):
    """Position of the column in the alphabet 1 < ... < n < nbar < ... < 1bar."""
    return label.col if not label.barred else 2 * n + 1 - label.col


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
                ordered = sorted(row, key=lambda lab: col_pos(lab, n))
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
                if cur is None or col_pos(lab, n) < col_pos(cur, n):
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
                min(row, key=lambda lab: col_pos(lab, n))
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


def test_path_length_is_its_root_count():
    assert len(DyckPath("odd", 2, (L(1, 1), L(1, 2), L(1, 2, True), L(2, 2, True)))) == 4


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


def test_wt_deg_refuses_a_point_that_is_not_integer():
    # The message of `polytope.violated_paths`; a wrong length comes first.
    poset = build_poset("odd", 1)
    for point, wrong in [((0.5, 0), "0.5 at position 0"),
                         ((1, 2.0), "2.0 at position 1")]:
        with pytest.raises(TypeError, match=re.escape(f"coordinate {wrong} is not an integer")):
            wt_deg(poset, point)
    with pytest.raises(ValueError, match="point length"):
        wt_deg(poset, (0.5,))
    assert wt_deg(poset, (True, 0)) == ((1, -1), 1)


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


def test_value_classes_compare_hash_print_and_refuse_assignment():
    """RootPoset, DyckPath, InequalitySystem and MarkedPoset are immutable
    values: equal arguments give equal instances with equal hashes, the
    repr names the compared fields only, and no attribute can be set."""
    odd1, odd2 = build_poset("odd", 1), build_poset("odd", 2)
    row = IneqRow(frozenset({L(1, 1)}), 1)
    cases = [
        (lambda: RootPoset("odd", 1, tuple(odd1.roots), tuple(odd1.covers)),
         ("family", "n", "roots", "covers"),
         "RootPoset(family='odd', n=1, roots=("
         "Root(label=RootLabel(row=1, col=1, barred=False), eps=(1, -1)), "
         "Root(label=RootLabel(row=1, col=1, barred=True), eps=(2, 0))), "
         "covers=((0, 1),))"),
        (lambda: DyckPath("odd", 1, (L(1, 1),)),
         ("family", "n", "labels"),
         "DyckPath(family='odd', n=1, "
         "labels=(RootLabel(row=1, col=1, barred=False),))"),
        (lambda: InequalitySystem("odd", 1, (1,), (row,), (), odd1),
         ("family", "n", "weight", "rows", "paths", "poset"),
         "InequalitySystem(family='odd', n=1, weight=(1,), rows=(IneqRow("
         "support=frozenset({RootLabel(row=1, col=1, barred=False)}), "
         "bound=1),))"),
        (lambda: MarkedPoset(("a", "x", "b"), (("a", "x"), ("x", "b")),
                             (("a", 0), ("b", 2))),
         ("elements", "covers", "markings"),
         "MarkedPoset(elements=('a', 'x', 'b'), covers=(('a', 'x'), "
         "('x', 'b')), markings=(('a', 0), ('b', 2)))"),
    ]
    for make, fields, text in cases:
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert not a != b and a != ()
        assert repr(a) == text
        assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
        for name in fields + ("_succ", "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b and repr(a) == text
    # The paths and the poset an inequality system was built from are not
    # part of its value.
    paths = dyck_paths(odd1)
    system = InequalitySystem("odd", 1, (1,), (row,), paths, odd1)
    other = InequalitySystem("odd", 1, (1,), (row,), (), odd2)
    assert system == other and hash(system) == hash(other)
    assert system.paths == paths and other.poset is odd2
    assert system != InequalitySystem("odd", 1, (2,), (row,), paths, odd1)


def test_frozen_constructor_sets_the_fields_in_order_and_counts_them():
    path = DyckPath(family="odd", n=1, labels=(L(1, 1),))
    assert (path.family, path.n, path.labels) == ("odd", 1, (L(1, 1),))
    poset = object.__new__(RootPoset)
    _Frozen.__init__(poset, "odd", 1, (), (), _index={}, _succ=(), _pred=())
    assert poset == RootPoset("odd", 1, (), ()) and len(poset) == 0
    for cls, args in [(DyckPath, ("odd", 1)), (DyckPath, ("odd", 1, (), None)),
                      (RootPoset, ("odd",))]:
        message = f"{cls.__name__} takes {len(cls._fields)} arguments, got {len(args)}"
        with pytest.raises(TypeError, match=message):
            _Frozen.__init__(object.__new__(cls), *args)


def test_fields_are_set_only_in_the_frozen_constructor():
    src = Path(__file__).resolve().parent.parent / "src" / "fflv"
    sites = {path.name: path.read_text().count("object.__setattr__")
             for path in src.glob("*.py")}
    frozen = next(node for node in ast.parse((src / "rootsys.py").read_text()).body
                  if isinstance(node, ast.ClassDef) and node.name == "_Frozen")
    init = next(node for node in frozen.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    inside = ast.unparse(init).count("object.__setattr__")
    assert inside and {name: k for name, k in sites.items() if k} == {"rootsys.py": inside}
