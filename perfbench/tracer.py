"""Spans and counters around gibbskit's public functions, from outside it.

``install`` replaces every public function of the seven modules with a
wrapper that records a span (id, parent id, name, start, end) and adds the
span's self time -- its duration minus the time covered by its child
spans -- to its layer.  A name another module bound with ``from .x import
y`` is rebound there too, so calls between modules are seen.  A few class
methods (Multivector and Poly construction, Poly.diff) are counted
without a span.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import time

MODULES = ("ga", "dyadics", "fields", "kinematics", "notation", "checks", "cli")

# cli has no __all__; these are its entry point and its field loader.
CLI_FUNCTIONS = ("main", "_load_field")

# Self-time groups beyond the span's own layer.
EXTRA_GROUPS = {
    "fields.load_field": ("fields.load",),
    "fields.field_from_dict": ("fields.load",),
    "notation.tokenize": ("notation.tokenize",),
    "notation.parse": ("notation.parse",),
    "notation.parse_tokens": ("notation.parse",),
    "notation.render": ("notation.parse",),
    "notation.evaluate": ("notation.evaluate",),
    "notation.audit_convention": ("notation.evaluate",),
    "cli.main": ("cli.main",),
    "cli._load_field": ("cli.load_field",),
}

PRODUCT_KERNELS = ("ga.geometric_product", "ga.dot", "ga.wedge")

MAX_SPANS = 200_000


def _modules():
    return {name: importlib.import_module(f"gibbskit.{name}") for name in MODULES}


def _public_functions(name, mod):
    names = CLI_FUNCTIONS if name == "cli" else mod.__all__
    for attr in names:
        fn = getattr(mod, attr)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield attr, fn


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.rejects = 0
        self.derived_resolve = 0
        self.multivector_new = 0
        self.poly_new = 0
        self.poly_diff = 0
        self.grad_keys: set = set()
        self.diff_keys: set = set()
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, layer, site, notation_error):
        groups = (layer,) + EXTRA_GROUPS.get(name, ())
        for g in groups:
            self.self_ns.setdefault(g, 0)
        self.calls.setdefault(name, 0)
        calls, self_ns, stack, spans = self.calls, self.self_ns, self._stack, self.spans
        ids, clock = self._ids, time.perf_counter_ns
        is_notation = layer == "notation"
        resolves_derived = name == "kinematics.decompose" and site == "gibbskit.notation"
        is_grad = name == "fields.grad_gibbs"
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if resolves_derived:
                tracer.derived_resolve += 1
            if is_grad:
                tracer.grad_keys.add((args[0], args[1]))
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0, layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except notation_error:
                if is_notation and (len(stack) < 2 or stack[-2][2] != "notation"):
                    tracer.rejects += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                for g in groups:
                    self_ns[g] += own
                if stack:
                    stack[-1][1] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((sid, parent, name, start, end))
                else:
                    tracer.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_method(self, cls, attr, bump):
        original = cls.__dict__[attr]

        def wrapper(obj, *args):
            bump(obj, *args)
            return original(obj, *args)

        setattr(cls, attr, wrapper)
        self._restore.append((cls, attr, original))

    # -- install / uninstall -----------------------------------------------

    def install(self):
        mods = _modules()
        targets = {}
        for name, mod in mods.items():
            for attr, fn in _public_functions(name, mod):
                targets[id(fn)] = (f"{name}.{attr}", name, fn)
        notation_error = mods["notation"].NotationError
        sites = list(mods.values()) + [importlib.import_module("gibbskit")]
        for site in sites:
            for attr, value in list(vars(site).items()):
                hit = targets.get(id(value))
                if hit is None:
                    continue
                span_name, layer, fn = hit
                wrapper = self._span(fn, span_name, layer, site.__name__, notation_error)
                setattr(site, attr, wrapper)
                self._restore.append((site, attr, value))

        ga, fields = mods["ga"], mods["fields"]

        def new_mv(obj):
            self.multivector_new += 1

        def new_poly(obj):
            self.poly_new += 1

        def diff(obj, axis):
            self.poly_diff += 1
            self.diff_keys.add((obj.terms, axis))

        self._count_method(ga.Multivector, "__post_init__", new_mv)
        self._count_method(fields.Poly, "__post_init__", new_poly)
        self._count_method(fields.Poly, "diff", diff)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Counts and self times; plain data, so a child process can send it."""
        calls = self.calls
        return {
            "calls": dict(calls),
            "self_ns": dict(self.self_ns),
            "product_calls": sum(calls.get(k, 0) for k in PRODUCT_KERNELS),
            "multivector_new": self.multivector_new,
            "poly_new": self.poly_new,
            "poly_diff": self.poly_diff,
            "poly_diff_distinct": len(self.diff_keys),
            "grad_gibbs_calls": calls.get("fields.grad_gibbs", 0),
            "grad_gibbs_distinct": len(self.grad_keys),
            "fd_grad_calls": calls.get("fields.fd_grad", 0),
            "rejects": self.rejects,
            "derived_resolve": self.derived_resolve,
            "spans": len(self.spans) + self.dropped,
        }


def layer_calls(calls: dict, layer: str) -> int:
    return sum(n for name, n in calls.items() if name.startswith(layer + "."))


def write_spans(path, spans, dropped):
    """Spans as parallel columns: id, parent (0 = none), name, start_ns, end_ns."""
    names = sorted({s[2] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "names": names,
        "dropped": dropped,
        "columns": ["id", "parent", "name", "start_ns", "end_ns"],
        "rows": [[s[0], s[1], index[s[2]], s[3], s[4]] for s in spans],
    }
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
