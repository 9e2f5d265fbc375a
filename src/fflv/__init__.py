"""Lattice polytopes, graded characters and straightening operators for the
symplectic families sp_{2n} (even) and sp_{2n+1} (odd).

The package is organized bottom-up:

  rootsys       root posets, Dyck paths, coordinate conversions
  polytope      inequality systems, lattice-point enumeration, graded
                counts, Minkowski and slice checks, Ehrhart counts
  characters    graded characters, branching data, exact dimensions
  marked_poset  marked order/chain polytopes, transfer map, rank-one family
  straightening derivation operators and leading-term verification
  cli           command-line interface

All arithmetic is exact (integers and fractions); no third-party
dependencies are required.
"""

from .rootsys import (
    EVEN,
    ODD,
    Root,
    RootLabel,
    RootPoset,
    DyckPath,
    build_poset,
    dyck_paths,
    path_bound,
    wt_deg,
    fundamental_to_eps,
    partition_from_fundamental,
    fundamental_from_partition,
)
from .polytope import (
    IneqRow,
    InequalitySystem,
    Counterexample,
    inequalities,
    contains,
    violated_paths,
    enumerate_points,
    lattice_points,
    graded_count,
    minkowski_verify,
    slice_verify,
    ehrhart_counts,
)
from .characters import (
    QPolynomial,
    GradedCharacter,
    delta_set,
    interlace_set,
    weyl_dim,
    qchar_polytope,
    qchar_branching,
    dim,
    qdim,
)
from .marked_poset import (
    MarkedPoset,
    order_points,
    chain_points,
    transfer,
    abs_verify,
    fflv_marked_poset,
    n1_formula,
    n1_family_poset,
    n1_attachments,
    n1_report,
)
from .straightening import Straightener

__all__ = [
    "EVEN",
    "ODD",
    "Root",
    "RootLabel",
    "RootPoset",
    "DyckPath",
    "build_poset",
    "dyck_paths",
    "path_bound",
    "wt_deg",
    "fundamental_to_eps",
    "partition_from_fundamental",
    "fundamental_from_partition",
    "IneqRow",
    "InequalitySystem",
    "Counterexample",
    "inequalities",
    "contains",
    "violated_paths",
    "enumerate_points",
    "lattice_points",
    "graded_count",
    "minkowski_verify",
    "slice_verify",
    "ehrhart_counts",
    "QPolynomial",
    "GradedCharacter",
    "delta_set",
    "interlace_set",
    "weyl_dim",
    "qchar_polytope",
    "qchar_branching",
    "dim",
    "qdim",
    "MarkedPoset",
    "order_points",
    "chain_points",
    "transfer",
    "abs_verify",
    "fflv_marked_poset",
    "n1_formula",
    "n1_family_poset",
    "n1_attachments",
    "n1_report",
    "Straightener",
    "__version__",
]

__version__ = "0.1.0"
