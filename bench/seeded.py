"""Seeded input generators owned by the benchmark.

The marked-poset generator is a copy, not an import, of the one in
tests/randposets.py, so that editing a test can never change a workload.
The monomial sampler draws from the vectors `fflv verify straightening`
enumerates.  The same `random.Random` state always gives the same inputs.
"""

import random

from fflv.marked_poset import MarkedPoset
from fflv.rootsys import RootLabel, dyck_paths


MAX_ELEMENTS = 8
MAX_MARKING = 3


def random_marked_poset(rng: random.Random) -> MarkedPoset:
    """Random DAG reduced to its covers, extremes marked, markings monotone.

    Same construction as the test suite's generator: every minimal and
    maximal element is marked, a quarter of the others on average, and
    marking levels rise weakly along covers so the poset is always valid.
    """
    size = rng.randint(2, MAX_ELEMENTS)
    edges = set()
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                edges.add((i, j))

    succs = {i: sorted(j for (a, j) in edges if a == i) for i in range(size)}
    reach: dict[int, set[int]] = {}
    for i in reversed(range(size)):
        r: set[int] = set()
        for j in succs[i]:
            r.add(j)
            r |= reach[j]
        reach[i] = r

    # Transitive reduction: drop edges implied by a longer route.
    covers = [
        (i, j)
        for (i, j) in sorted(edges)
        if not any(j in reach[k] for k in succs[i] if k != j)
    ]

    has_pred = {j for (_, j) in covers}
    has_succ = {i for (i, _) in covers}
    marked_ids = {i for i in range(size) if i not in has_pred or i not in has_succ}
    for i in range(size):
        if i not in marked_ids and rng.random() < 0.25:
            marked_ids.add(i)

    level = {}
    for i in range(size):
        low = max((level[a] for (a, b) in covers if b == i), default=0)
        level[i] = rng.randint(low, MAX_MARKING)

    markings = tuple((i, level[i]) for i in sorted(marked_ids))
    return MarkedPoset(tuple(range(size)), tuple(covers), markings)


def straightening_paths(poset) -> list:
    """Dyck paths from the top-left diagonal root to a barred end."""
    return [
        p
        for p in dyck_paths(poset)
        if p.start == RootLabel(1, 1, False) and p.end.barred
    ]


def violating_monomial(rng: random.Random, poset, paths, total: int):
    """(weight, exponent vector, path) with the vector violating the path.

    The path bound `total` is carried by the first fundamental coordinate,
    as `fflv verify straightening` does; the vector puts total + 1 units on
    positions of a random path, each position chosen uniformly.
    """
    labels = poset.labels()
    path = rng.choice(paths)
    positions = [labels.index(lab) for lab in path.labels]
    vec = [0] * len(labels)
    for _ in range(total + 1):
        vec[rng.choice(positions)] += 1
    weight = (total,) + (0,) * (poset.n - 1)
    return weight, tuple(vec), path
