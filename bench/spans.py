"""Span tracing of the calls into each fflv module, from outside the package.

`Tracer.install` replaces every module binding of each traced function (for
example both `fflv.polytope.lattice_points` and `fflv.characters.lattice_points`)
with a wrapper that records a span; `Tracer.uninstall` puts the originals
back.  A span's self time is its duration minus the durations of the traced
calls made inside it; the self times inside one item, plus the item's own
self time (the benchmark's checks), cover the item's traced wall time.

Hot leaf functions (`HOT`) are called once per lattice point or per
derivation step; they are not recorded as spans of their own but aggregated
per parent span (calls and seconds), which bounds the memory of a trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

TARGETS = {
    "rootsys": ("build_poset", "dyck_paths", "wt_deg"),
    "polytope": (
        "inequalities",
        "enumerate_points",
        "lattice_points",
        "minkowski_verify",
        "slice_verify",
        "ehrhart_counts",
    ),
    "characters": ("qchar_polytope", "qchar_branching", "qdim", "dim", "weyl_dim"),
    "marked_poset": (
        "fflv_marked_poset",
        "order_points",
        "chain_points",
        "chain_constraints",
        "transfer",
        "abs_verify",
        "n1_report",
    ),
    "straightening": (
        "Straightener.__init__",
        "Straightener.apply_derivation",
        "Straightener.straighten",
        "Straightener.verify",
    ),
    "cli": ("main",),
}

HOT = frozenset(
    {
        "rootsys.wt_deg",
        "characters.weyl_dim",
        "marked_poset.transfer",
        "straightening.Straightener.apply_derivation",
    }
)

COUNTS = (
    "rootsys.paths_out",
    "polytope.rows_out",
    "polytope.points_out",
    "polytope.sumset_pairs",
    "characters.char_terms",
    "characters.q_mismatch_weights",
    "marked_poset.order_points_out",
    "marked_poset.chain_points_out",
    "straightening.terms_out",
    "cli.instances",
)

RATIOS = ("polytope.lattice_points.hit_ratio", "polytope.sumset_useful_ratio")

ITEM = "bench.item"     # the benchmark's own span around one item
HOOKS = "bench.hooks"   # time spent computing counts from returned values


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units.update({f"{layer}.errors": "count" for layer in TARGETS})
    units["trace.overhead_frac"] = "ratio"
    return units


def fflv_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "fflv" or name.startswith("fflv.")]


def target_bindings() -> tuple[list, list[str]]:
    """Every binding of every traced function, and the targets not found.

    Returns ([(name, layer, original, [(owner, attribute), ...]), ...],
    missing names).  A function's bindings are all the fflv modules that
    hold it under some name; a method's binding is its class.
    """
    modules = fflv_modules()
    found, missing = [], []
    for layer, names in TARGETS.items():
        module = importlib.import_module(f"fflv.{layer}")
        for dotted in names:
            name = f"{layer}.{dotted}"
            cls_name, _, attr = dotted.rpartition(".")
            if cls_name:
                owner = getattr(module, cls_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                owners = [(owner, attr)]
            else:
                original = getattr(module, attr, None)
                owners = [(m, a) for m in modules
                          for a, value in vars(m).items() if value is original]
            if original is None:
                missing.append(name)
            else:
                found.append((name, layer, original, owners))
    return found, missing


class _Frame:
    __slots__ = ("id", "name", "start", "child", "leaves", "lp_sizes")

    def __init__(self, span_id: int, name: str, start: float):
        self.id = span_id
        self.name = name
        self.start = start
        self.child = 0.0      # summed duration of traced calls inside
        self.leaves = None    # hot leaf name -> [calls, seconds]
        self.lp_sizes = None  # sizes returned by lattice_points inside


def _char_terms(char) -> int:
    return sum(len(poly.coeffs) for poly in char.terms.values())


def _post_lattice_points(tracer, frame, parent, result, bound):
    if parent.name == "polytope.minkowski_verify":
        if parent.lp_sizes is None:
            parent.lp_sizes = []
        parent.lp_sizes.append(len(result))


def _post_minkowski(tracer, frame, parent, result, bound):
    # minkowski_verify asks for A = P(lam), B = P(mu), then P(lam + mu).
    sizes = frame.lp_sizes or ()
    if len(sizes) >= 3:
        a, b, total = sizes[:3]
        tracer.counts["polytope.sumset_pairs"] += a * b
        tracer.sumset_total += total


def _post_qchar_polytope(tracer, frame, parent, result, bound):
    tracer.counts["characters.char_terms"] += _char_terms(result)
    if bound["family"] == "odd":
        key = (tracer.item, bound["n"], tuple(bound["weight"]))
        tracer.pending_chars[key] = result


def _post_qchar_branching(tracer, frame, parent, result, bound):
    tracer.counts["characters.char_terms"] += _char_terms(result)
    key = (tracer.item, bound["n"], tuple(bound["weight"]))
    other = tracer.pending_chars.pop(key, None)
    if other is not None:
        weights = set(other.terms) | set(result.terms)
        tracer.counts["characters.q_mismatch_weights"] += sum(
            other.terms.get(w) != result.terms.get(w) for w in weights
        )


def _counter(name, measure):
    def post(tracer, frame, parent, result, bound):
        tracer.counts[name] += measure(result)
    return post


POST = {
    "rootsys.dyck_paths": _counter("rootsys.paths_out", len),
    "polytope.inequalities": _counter("polytope.rows_out", lambda s: len(s.rows)),
    "polytope.enumerate_points": _counter("polytope.points_out", len),
    "polytope.lattice_points": _post_lattice_points,
    "polytope.minkowski_verify": _post_minkowski,
    "characters.qchar_polytope": _post_qchar_polytope,
    "characters.qchar_branching": _post_qchar_branching,
    "marked_poset.order_points": _counter("marked_poset.order_points_out", len),
    "marked_poset.chain_points": _counter("marked_poset.chain_points_out", len),
    "straightening.Straightener.straighten": _counter("straightening.terms_out", len),
}
# Hooks that need the call's arguments by parameter name.
NEEDS_ARGS = frozenset({"characters.qchar_polytope", "characters.qchar_branching"})


class Tracer:
    """Spans and counts of one traced pass; `reset` starts the next pass."""

    def __init__(self):
        self.patched: list = []    # (owner, attribute, original, wrapper)
        self.missing: list[str] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.stats = {name: [0, 0.0] for name in function_names() + [ITEM, HOOKS]}
        self.counts = Counter({name: 0 for name in COUNTS})
        self.errors = Counter({layer: 0 for layer in TARGETS})
        self.sumset_total = 0
        self.pending_chars: dict = {}
        self.spans: list = []
        self.items: list = []      # (item id, label, self time inside, item's own self time)
        self.item = None
        self._next_id = 1
        self._inside = 0.0
        self._stack = [_Frame(0, "bench.pass", perf_counter())]

    def _account(self, name: str, seconds: float) -> None:
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += seconds
        self._inside += seconds

    def _record(self, frame: _Frame, parent: _Frame, end: float) -> float:
        """Charge the span's self time and return it."""
        dur = end - frame.start
        own = dur - frame.child
        self._account(frame.name, own)
        parent.child += dur
        self.spans.append(
            (frame.id, parent.id, self.item, frame.name, frame.start, end, own, frame.leaves)
        )
        return own

    def run_item(self, item_id: int, label: str, fn):
        """Run fn() as one item under a `bench.item` span; returns its result."""
        self.item = item_id
        self._inside = 0.0
        parent = self._stack[-1]
        frame = self._open(ITEM)
        try:
            return fn()
        finally:
            end = perf_counter()
            self._stack.pop()
            inside = self._inside
            self.items.append((item_id, label, inside, self._record(frame, parent, end)))
            self.pending_chars.clear()
            self.item = None

    def _open(self, name: str) -> _Frame:
        frame = _Frame(self._next_id, name, 0.0)
        self._next_id += 1
        self._stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _span_call(self, name, layer, fn, post, sig, args, kwargs):
        parent = self._stack[-1]
        frame = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.errors[layer] += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self._record(frame, parent, end)
        if post is not None:
            start = perf_counter()
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            post(self, frame, parent, result, bound)
            hooks = perf_counter() - start
            parent.child += hooks
            self._account(HOOKS, hooks)
        return result

    def _leaf_call(self, name, layer, fn, args, kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[layer] += 1
            raise
        finally:
            dur = perf_counter() - start
            parent = self._stack[-1]
            parent.child += dur
            if parent.leaves is None:
                parent.leaves = {}
            agg = parent.leaves.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += dur
            self._account(name, dur)

    # -- patching ----------------------------------------------------------

    def _wrapper(self, name: str, layer: str, fn):
        if name in HOT:
            def wrapper(*args, **kwargs):
                return self._leaf_call(name, layer, fn, args, kwargs)
        else:
            post = POST.get(name)
            sig = inspect.signature(fn) if name in NEEDS_ARGS else None

            def wrapper(*args, **kwargs):
                return self._span_call(name, layer, fn, post, sig, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        found, self.missing = target_bindings()
        for name, layer, original, owners in found:
            wrapper = self._wrapper(name, layer, original)
            for owner, attr in owners:
                setattr(owner, attr, wrapper)
                self.patched.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []

    # -- results -----------------------------------------------------------

    def pass_metrics(self, cache_hits: int, cache_lookups: int) -> dict:
        """Per-layer numbers of this pass, except the overhead ratio."""
        out = {}
        for name in function_names():
            calls, seconds = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = seconds
        out.update(self.counts)
        out["polytope.lattice_points.hit_ratio"] = (
            cache_hits / cache_lookups if cache_lookups else 0.0
        )
        pairs = self.counts["polytope.sumset_pairs"]
        out["polytope.sumset_useful_ratio"] = self.sumset_total / pairs if pairs else 0.0
        for layer, n in self.errors.items():
            out[f"{layer}.errors"] = n
        return out

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def span_rows(self) -> list:
        """Spans of this pass, times in seconds from the start of the pass."""
        origin = self._stack[0].start
        return [
            [sid, parent, item, name, start - origin, end - origin, own, leaves]
            for sid, parent, item, name, start, end, own, leaves in self.spans
        ]
