"""Spans around the package's layer entry points, installed from outside.

`Tracer.install` replaces, in every layer module, the public functions it
defines and every function it imports from another layer module (such as
`bubbles.schouten_flat` or `continuation._esym_all_batch`) with a timing
wrapper, and does the same for the public methods of the classes in
METHODS. `uninstall` puts the originals back. The package itself is not
edited.

A wrapper records a span (name, calling module, parent, thread, start, end)
in memory. Parents are tracked per thread; the sweep's thread pool is
wrapped so that work submitted to it is parented to the submitting span.
Functions in COUNTED run hundreds of thousands of times per pass, so they
record no span: their calls and time are summed per enclosing span, and the
time counts for their own layer, not for the enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "halton", "conformal", "symfun", "bubbles", "radial", "continuation")

METHODS = {
    "conformal": {"ScalarField": ("raw_jet", "jet", "value", "values"),
                  "MobiusMap": ("apply", "apply_batch", "jacobian_det",
                                "log_det_batch", "jet", "jacobian", "then",
                                "inverse", "poles")},
}

# per-node and per-digit helpers: counted, not spanned
COUNTED = {"radial.solve_for_u2", "radial.radial_eigenvalues"}
# the per-digit loop of halton_sequence; its time is halton_sequence's self time
SKIPPED = {"halton.radical_inverse"}


def _size_of(name, args, kwargs, result, exc):
    """Work size recorded on a span: points, nodes, iterations or images."""
    if name == "conformal.ScalarField.values":
        return len(args[1])
    if name == "halton.halton_sequence":
        return args[0] if args else kwargs["count"]
    if name == "bubbles.verify_solution" and exc is None:
        return result.n_samples
    if name == "radial.shoot" and exc is None:
        return len(result.r)
    if name == "continuation.newton_solve":
        if exc is None:
            return result[1].iters
        return getattr(exc, "iterations", None) or 0
    if name == "bubbles.harnack_sweep":
        return kwargs.get("mobius_words", 0)
    return None


@dataclass(slots=True)
class Span:
    sid: int
    name: str          # defining layer and qualified name, e.g. conformal.ScalarField.raw_jet
    site: str          # layer module the call went through
    parent: int | None
    thread: int
    start: float
    end: float
    size: float | None
    failed: bool

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # (parent span, function name) -> [calls, seconds] of COUNTED functions
        self.counted: dict[tuple[int | None, str], list] = defaultdict(lambda: [0, 0.0])
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- per-thread parent links -------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def run_under(self, parent, fn, *args, **kwargs):
        """Run fn on this thread with `parent` as the parent of its outer spans."""
        saved = getattr(self._local, "base", None)
        self._local.base = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.base = saved

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, site: str):
        tracer = self
        if name in COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                parent = tracer.current()
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    with tracer._lock:
                        entry = tracer.counted[(parent, name)]
                        entry[0] += 1
                        entry[1] += dt
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = tracer.current()
            sid = next(tracer._ids)
            stack = tracer._stack()
            stack.append(sid)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    sid, name, site, parent, threading.get_ident(), t0, t1,
                    _size_of(name, args, kwargs, result, exc), exc is not None))
        return spanned

    def _pool_class(self):
        """ThreadPoolExecutor whose tasks start under the submitting thread's span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(),
                                      fn, *args, **kwargs)
        return TracedPool

    def _patch(self, owner, attr: str, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the layer entry points of an imported sigmak_lab package."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        by_module = {mod.__name__: layer for layer, mod in modules.items()}
        for site, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value) or value.__module__ not in by_module:
                    continue
                layer = by_module[value.__module__]
                imported = layer != site
                if attr.startswith("_") and not imported:
                    continue
                name = f"{layer}.{value.__qualname__}"
                if name not in SKIPPED:
                    self._patch(mod, attr, self._wrap(value, name, site))
            if site == "bubbles" and hasattr(mod, "ThreadPoolExecutor"):
                self._patch(mod, "ThreadPoolExecutor", self._pool_class())
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name, None)
                for meth in methods:
                    if cls is not None and inspect.isfunction(cls.__dict__.get(meth)):
                        self._patch(cls, meth, self._wrap(
                            cls.__dict__[meth], f"{layer}.{cls_name}.{meth}", layer))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(tracer: Tracer) -> dict[int, float]:
    """Span duration minus the part covered by child spans and counted calls.

    Children on other threads (the sweep's pool) overlap each other, so the
    covered part is the union of their intervals, not their sum.
    """
    children = defaultdict(list)
    for sp in tracer.spans:
        children[sp.parent].append((sp.start, sp.end))
    counted = defaultdict(float)
    for (parent, _), (_, seconds) in tracer.counted.items():
        counted[parent] += seconds
    out = {}
    for sp in tracer.spans:
        busy = _covered(sp.start, sp.end, children.get(sp.sid, ()))
        out[sp.sid] = max(0.0, sp.end - sp.start - busy - counted[sp.sid])
    return out


def layer_metrics(tracer: Tracer, traced_wall: float, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of `passes` traced passes taking traced_wall seconds in all.

    Counts are per pass. A metric whose layer did no work reads 0.
    """
    selft = self_times(tracer)
    spans = tracer.spans
    by_id = {sp.sid: sp for sp in spans}

    def named(name):
        return [sp for sp in spans if sp.name == name]

    def dur(sp):
        return sp.end - sp.start

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = defaultdict(float)
    for sp in spans:
        layer_self[sp.layer] += selft[sp.sid]
    for (_, name), (_, seconds) in tracer.counted.items():
        layer_self[name.split(".", 1)[0]] += seconds
    share = {layer: ratio(layer_self[layer], traced_wall) for layer in LAYERS}
    per_pass = 1.0 / passes

    raw = named("conformal.ScalarField.raw_jet")
    outer_raw = {sp.parent for sp in raw}
    # a transformed field's jet calls its source field's jet inside its span
    transformed = [sp for sp in raw if sp.sid in outer_raw]
    base = [sp for sp in raw if sp.sid not in outer_raw]
    values = [sp for sp in named("conformal.ScalarField.values")
              if by_id.get(sp.parent) is None
              or by_id[sp.parent].name != "conformal.ScalarField.values"]
    halton = named("halton.halton_sequence")
    halton_points = sum(sp.size for sp in halton)
    symfun = [sp for sp in spans if sp.layer == "symfun"]
    verify = [sp for sp in named("bubbles.verify_solution") if not sp.failed]
    harnack = named("bubbles.harnack_product")
    shoots = named("radial.shoot")
    good_shoots = [sp for sp in shoots if not sp.failed]
    nodes = sum(sp.size for sp in good_shoots)
    rhs_evals = sum(tracer.counted.get((sp.sid, "radial.solve_for_u2"), (0, 0.0))[0]
                    for sp in good_shoots)
    liouville = named("radial.liouville_report")
    paths = named("continuation.continue_path")
    newton = named("continuation.newton_solve")
    iters = sum(sp.size for sp in newton)
    draws = named("conformal.random_mobius_map")
    images = sum(1 for sp in named("conformal.transform_field") if sp.site == "cli") \
        + sum(sp.size for sp in named("bubbles.harnack_sweep"))

    us, ms = 1e6, 1e3
    return {
        "conformal.transport_us_per_point": (
            us * ratio(sum(selft[sp.sid] for sp in transformed), len(transformed)), "us"),
        "conformal.base_jet_us_per_point": (
            us * ratio(sum(selft[sp.sid] for sp in base), len(base)), "us"),
        "conformal.jet_calls": (len(raw) * per_pass, "count"),
        "conformal.values_us_per_point": (
            us * ratio(sum(dur(sp) for sp in values), sum(sp.size for sp in values)), "us"),
        "conformal.share": (share["conformal"], "ratio"),
        "halton.points": (halton_points * per_pass, "count"),
        "halton.us_per_point": (us * ratio(layer_self["halton"], halton_points), "us"),
        "halton.share": (share["halton"], "ratio"),
        "symfun.calls": (len(symfun) * per_pass, "count"),
        "symfun.share": (share["symfun"], "ratio"),
        "bubbles.verify_us_per_point": (
            us * ratio(sum(dur(sp) for sp in verify), sum(sp.size for sp in verify)), "us"),
        "bubbles.harnack_ms_per_cell": (
            ms * ratio(sum(dur(sp) for sp in harnack), len(harnack)), "ms"),
        "bubbles.share": (share["bubbles"], "ratio"),
        "radial.shoot_ms": (ms * ratio(sum(dur(sp) for sp in shoots), len(shoots)), "ms"),
        "radial.nodes": (nodes * per_pass, "count"),
        "radial.us_per_node": (
            us * ratio(sum(dur(sp) for sp in good_shoots), nodes), "us"),
        "radial.rhs_evals_per_node": (ratio(rhs_evals, nodes), "calls/node"),
        "radial.liouville_ms": (
            ms * ratio(sum(dur(sp) for sp in liouville), len(liouville)), "ms"),
        "radial.share": (share["radial"], "ratio"),
        "continuation.path_ms": (ms * ratio(sum(dur(sp) for sp in paths), len(paths)), "ms"),
        "continuation.newton_iters": (iters * per_pass, "count"),
        "continuation.failed_solves": (
            sum(1 for sp in newton if sp.failed) * per_pass, "count"),
        "continuation.ms_per_newton_iter": (
            ms * ratio(sum(dur(sp) for sp in newton), iters), "ms"),
        "continuation.share": (share["continuation"], "ratio"),
        "cli.self_share": (share["cli"], "ratio"),
        "cli.word_draws_per_image": (ratio(len(draws), images), "draws/image"),
    }
