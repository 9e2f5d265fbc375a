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

from importlib import import_module

__version__ = "0.1.0"

# The exported names of each module.  A name is imported from its module on
# first use (PEP 562) and not stored here, so `fflv.X` always reads the
# defining module's current binding.
_EXPORTS = {
    "rootsys": (
        "EVEN", "ODD", "Root", "RootLabel", "Counterexample", "RootPoset", "DyckPath",
        "build_poset", "dyck_paths", "path_bound", "wt_deg",
        "fundamental_to_eps", "partition_from_fundamental",
        "fundamental_from_partition",
    ),
    "polytope": (
        "IneqRow", "InequalitySystem", "inequalities",
        "contains", "violated_paths", "enumerate_points", "lattice_points",
        "graded_count", "minkowski_verify", "slice_verify", "ehrhart_counts",
    ),
    "characters": (
        "QPolynomial", "GradedCharacter", "delta_set", "interlace_set",
        "weyl_dim", "qchar_polytope", "qchar_branching", "dim", "qdim",
    ),
    "marked_poset": (
        "MarkedPoset", "order_points", "chain_points", "transfer",
        "abs_verify", "fflv_marked_poset", "n1_formula", "n1_family_poset",
        "n1_attachments", "n1_report",
    ),
    "straightening": ("Straightener",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return list(__all__)
