"""Command-line interface.

Verbs expose the library operations one at a time (poset, paths, ineq,
points, char, dim, ehrhart, transfer, n1) and `verify` runs exhaustive
sweeps with a machine-readable summary line.  Exit codes: 0 success or
all-pass, 1 verification failure, 2 usage error.  Output is deterministic
for fixed arguments.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from itertools import combinations_with_replacement, product, tee

from .rootsys import RootLabel, build_poset, dyck_paths

def _weight_arg(text: str) -> tuple[int, ...]:
    try:
        weight = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weight must be comma-separated integers, got {text!r}"
        )
    if any(x < 0 for x in weight):
        raise argparse.ArgumentTypeError("weight entries must be nonnegative")
    return weight


def _int_at_least(least: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _dump(data) -> None:
    import json     # here, so a verb that prints no JSON does not load it

    print(json.dumps(data))


def _all_weights(n: int, max_coeff: int):
    return list(product(range(max_coeff + 1), repeat=n))


def _summary(target: str, instances: int, counterexample) -> int:
    _dump(
        {
            "target": target,
            "instances": instances,
            "failures": 0 if counterexample is None else 1,
            "status": "pass" if counterexample is None else "fail",
            "counterexample": counterexample,
        }
    )
    return 0 if counterexample is None else 1


def _cmd_poset(args) -> int:
    poset = build_poset(args.family, args.n)
    if args.format == "text":
        for root in poset.roots:
            print(root.label)
        for a, b in poset.covers:
            print(f"{poset.roots[a].label} -> {poset.roots[b].label}")
    else:
        _dump(poset.to_json())
    return 0


def _cmd_paths(args) -> int:
    paths = dyck_paths(build_poset(args.family, args.n))
    if args.count:
        print(len(paths))
    elif args.format == "text":
        for p in paths:
            print(" ".join(str(lab) for lab in p.labels))
    else:
        _dump([p.to_json() for p in paths])
    return 0


def _cmd_ineq(args) -> int:
    from . import polytope

    system = polytope.inequalities(args.family, args.n, args.weight)
    if args.format == "text":
        for row in system.rows:
            support = sorted(row.support, key=system.poset.index)
            print(" + ".join(f"s{lab}" for lab in support) + f" <= {row.bound}")
    else:
        _dump(system.to_json())
    return 0


def _cmd_points(args) -> int:
    from . import polytope

    if args.count:
        print(polytope.plain_count(args.family, args.n, args.weight))
        return 0
    points = polytope.lattice_points(args.family, args.n, args.weight)
    if args.format == "csv":
        for p in points:
            print(",".join(str(x) for x in p))
    else:
        print(polytope.points_to_jsonlines(points))
    return 0


def _cmd_char(args) -> int:
    from . import characters

    if args.method == "branching":
        if args.family != "odd":
            raise ValueError("the branching character is defined for the odd family")
        char = characters.qchar_branching(args.n, args.weight)
    else:
        char = characters.qchar_polytope(args.family, args.n, args.weight)
    _dump(char.to_json())
    return 0


def _cmd_dim(args) -> int:
    if args.method == "polytope":
        from . import polytope

        print(polytope.plain_count(args.family, args.n, args.weight))
    else:
        from . import characters

        print(characters.dim(args.family, args.n, args.weight, args.method))
    return 0


def _cmd_ehrhart(args) -> int:
    from . import polytope

    counts = polytope.ehrhart_counts(args.family, args.n, args.weight, args.t_max)
    if args.format == "csv":
        print(polytope.counts_to_csv(counts))
    else:
        _dump(list(counts))
    return 0


def _cmd_transfer(args) -> int:
    from . import marked_poset as mp

    poset = mp.fflv_marked_poset(args.family, args.n, args.weight)
    order = mp.order_points(poset)
    chain = mp.chain_points(poset)
    failure = mp.check_transfer(poset, order, chain)
    _dump(
        {
            "family": args.family,
            "n": args.n,
            "weight": list(args.weight),
            "order_points": len(order),
            "chain_points": len(chain),
            "bijective": failure is None,
        }
    )
    return 0 if failure is None else 1


def _cmd_n1(args) -> int:
    from . import marked_poset as mp

    report = mp.n1_report(args.max_k, args.max_coeff)
    if args.format == "text":
        for r in report["results"]:
            line = f"{r['attachment']}: {r['status']} ({r['checked']} checked)"
            if r["counterexample"]:
                line += f" first failure {r['counterexample']}"
            print(line)
        print("passing: " + (", ".join(report["passing"]) or "none"))
    else:
        _dump(report)
    return 0 if report["passing"] else 1


def first_failure(cases) -> tuple[int, dict | None]:
    """Run a sweep up to its first failure: (instances run, counterexample).

    ``cases`` yields None for each passing instance and a counterexample
    dict for a failing one.
    """
    instances = 0
    for instances, case in enumerate(cases, start=1):
        if case is not None:
            return instances, case
    return instances, None


def _outcome(keys: dict, failure) -> dict | None:
    """None for a pass, else the instance's keys and the failure's kind and point."""
    return None if failure is None else {**keys, **failure.to_json()}


# One case generator per verify target, in the CLI's instance order.  Each
# imports the module that defines its checker and calls through it, so the
# checker is looked up when called and a wrapper installed on that module's
# binding sees every call.


def minkowski_cases(family: str, n: int, max_coeff: int):
    from . import polytope

    pairs = list(combinations_with_replacement(_all_weights(n, max_coeff), 2))
    for (lam, mu), failure in zip(pairs, polytope.minkowski_sweep(family, n, pairs)):
        yield _outcome({"family": family, "lambda": list(lam), "mu": list(mu)}, failure)


def abs_cases(family: str, n: int, max_coeff: int):
    from . import marked_poset as mp

    for weight in _all_weights(n, max_coeff):
        yield _outcome(
            {"family": family, "weight": list(weight)},
            mp.abs_verify(mp.fflv_marked_poset(family, n, weight)),
        )


def slice_cases(n: int, max_coeff: int):
    from . import polytope

    for weight in _all_weights(n, max_coeff):
        yield _outcome({"weight": list(weight)}, polytope.slice_verify(n, weight))


def qchar_cases(n: int, max_coeff: int):
    from . import characters

    for weight in _all_weights(n, max_coeff):
        a = characters.qchar_polytope("odd", n, weight).terms
        b = characters.qchar_branching(n, weight).terms
        if a == b:
            yield None
            continue
        diff = min(w for w in set(a) | set(b) if a.get(w) != b.get(w))
        pa, pb = a.get(diff), b.get(diff)
        yield {
            "weight": list(weight),
            "eps_weight": list(diff),
            "polytope": pa.to_json() if pa else {},
            "branching": pb.to_json() if pb else {},
        }


def _violating_vectors(engine, path, sigma):
    """Exponent vectors supported on the path with entries summing to sigma."""
    idxs = [engine.poset.index(lab) for lab in path.labels]
    for split in combinations_with_replacement(range(len(idxs)), sigma):
        vec = [0] * engine.nvars
        for pos in split:
            vec[idxs[pos]] += 1
        yield tuple(vec)


def straightening_cases(n: int, max_coeff: int):
    from . import straightening

    # The sweep's last vectors have degree n * max_coeff + 1: refuse it
    # before it builds any case rather than fail there.
    degree, limit = n * max_coeff + 1, straightening.DEGREE_LIMIT
    if degree > limit:
        raise ValueError(f"verify straightening needs n * max_coeff + 1 <= {limit}, "
                         f"the straightening degree limit; got {degree}")
    engine = straightening.Straightener(n)
    start = RootLabel(1, 1, False)
    paths = [p for p in dyck_paths(engine.poset) if p.start == start and p.end.barred]
    # Straightener.verify reads the weight only through its total.  The
    # degree rises with the bound, so verify_many holds one degree's
    # prefixes at a time; tee hands each case to it and to the report.
    cases, shown = tee(
        ((bound,) + (0,) * (n - 1), s, path)
        for bound in range(degree)
        for path in paths
        for s in _violating_vectors(engine, path, bound + 1)
    )
    for (_, s, path), failure in zip(shown, engine.verify_many(cases)):
        yield None if failure is None else {
            "path": [str(lab) for lab in path.labels],
            "s": list(s),
            "kind": failure.kind,
            "term": list(failure.point),
        }


def _n1_outcome(max_k: int, max_coeff: int):
    """(instances, counterexample) of `n1_report`, its instances summed over
    the attachments it compares."""
    from . import marked_poset as mp

    report = mp.n1_report(max_k, max_coeff)
    first = None if report["passing"] else report["results"][0]["counterexample"]
    return sum(r["checked"] for r in report["results"]), first


# Each verify target: whether it checks the odd family only, and its
# (instances, counterexample) for the parsed arguments.  The lambdas look
# the case generators up when called, so one replaced on this module is run.
_VERIFY = {
    "minkowski": (False, lambda a: first_failure(minkowski_cases(a.family, a.n, a.max_coeff))),
    "abs": (False, lambda a: first_failure(abs_cases(a.family, a.n, a.max_coeff))),
    "slice": (True, lambda a: first_failure(slice_cases(a.n, a.max_coeff))),
    "qchar": (True, lambda a: first_failure(qchar_cases(a.n, a.max_coeff))),
    "straightening": (True, lambda a: first_failure(straightening_cases(a.n, a.max_coeff))),
    "n1-formula": (True, lambda a: _n1_outcome(a.max_k, a.max_coeff)),
}
VERIFY_TARGETS = tuple(_VERIFY)


def _cmd_verify(args) -> int:
    odd_only, run = _VERIFY[args.target]
    if odd_only and args.family != "odd":
        raise ValueError(f"verify {args.target} checks the odd family only")
    return _summary(args.target, *run(args))


def _add_sweep_bounds(parser, max_k_help="largest k"):
    # A sweep over an empty range would check nothing and still pass.
    parser.add_argument(
        "--max-coeff", type=_int_at_least(0), default=2,
        help="largest coefficient entry",
    )
    parser.add_argument(
        "--max-k", type=_int_at_least(1), default=3, help=max_k_help
    )


def _add_format(parser, choices=("json", "text")):
    parser.add_argument(
        "--format",
        choices=choices,
        default="json",
        help="output format (default %(default)s)",
    )


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Each verb's handler imports the modules it calls when it runs and
    reads their functions from them, so a replaced function takes effect
    in a parser built before it, and a process loads only the modules its
    verb needs.
    """
    parser = argparse.ArgumentParser(
        prog="fflv",
        description="Lattice polytopes and characters of the symplectic families",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # The arguments most verbs share, added to a verb by parents=.
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument(
        "--family",
        choices=("odd", "even"),
        default="odd",
        help="root-system family (default %(default)s)",
    )
    rank = argparse.ArgumentParser(add_help=False, parents=[family])
    rank.add_argument("--n", type=_int_at_least(1), required=True, help="rank")
    weight = argparse.ArgumentParser(add_help=False, parents=[rank])
    weight.add_argument(
        "--weight",
        type=_weight_arg,
        required=True,
        help="fundamental coordinates m_1,...,m_n (comma-separated)",
    )

    p = sub.add_parser("poset", parents=[rank], help="print the root poset")
    _add_format(p)
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("paths", parents=[rank], help="list the Dyck paths")
    _add_format(p)
    p.add_argument("--count", action="store_true", help="print only the number")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("ineq", parents=[weight], help="print the inequality system")
    _add_format(p)
    p.set_defaults(func=_cmd_ineq)

    p = sub.add_parser("points", parents=[weight], help="enumerate lattice points")
    _add_format(p, choices=("json", "csv"))
    p.add_argument("--count", action="store_true", help="print only the number")
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("char", parents=[weight], help="print the graded character")
    p.add_argument(
        "--method",
        choices=("polytope", "branching"),
        default="polytope",
        help="character construction (default %(default)s)",
    )
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("dim", parents=[weight], help="print the dimension")
    p.add_argument(
        "--method",
        choices=("polytope", "branching", "weyl"),
        default="polytope",
        help="dimension method (default %(default)s)",
    )
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser(
        "ehrhart", parents=[weight], help="count points of dilated weights"
    )
    p.add_argument("--t-max", type=int, default=6, help="largest dilation factor")
    _add_format(p, choices=("json", "csv"))
    p.set_defaults(func=_cmd_ehrhart)

    p = sub.add_parser(
        "transfer", parents=[weight],
        help="order/chain point counts and transfer status",
    )
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("n1", help="rank-one family attachment report")
    _add_sweep_bounds(p)
    _add_format(p)
    p.set_defaults(func=_cmd_n1)

    p = sub.add_parser("verify", parents=[family], help="run a verification sweep")
    p.add_argument("target", choices=VERIFY_TARGETS)
    p.add_argument("--n", type=_int_at_least(1), default=1,
                   help="rank (default %(default)s)")
    _add_sweep_bounds(p, "largest k (n1-formula only)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
