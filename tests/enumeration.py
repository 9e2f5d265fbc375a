"""The enumeration oracle of the graded count: Counter of wt_deg over the
points that lattice_points lists.

Results are cached for the test session, since the polytope and character
tests ask for the same polytopes, and handed out read-only.
"""

from collections import Counter
from functools import lru_cache
from types import MappingProxyType

from fflv.polytope import lattice_points
from fflv.rootsys import build_poset, wt_deg


@lru_cache(maxsize=256)
def flat_counts(family, n, weight):
    """{(wt(s), deg(s)): count} over the enumerated lattice points."""
    poset = build_poset(family, n)
    points = lattice_points(family, n, tuple(weight))
    return MappingProxyType(Counter(wt_deg(poset, s) for s in points))
