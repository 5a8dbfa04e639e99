"""Outside-in span tracer for the modzeta layers.

The tracer replaces every public function of each layer module with a wrapper
that records one span per call: name, start, end, parent span and request id.
The program is not edited.  Several modules import names with
``from ..x import y``, so the wrapper is bound in place of *every* reference to
the original function object across the loaded ``modzeta.*`` modules, not only
in the defining module.  A reference the tracer misses shows up as lost
``trace.coverage``, not as silently missing time.

Spans are kept in memory; :meth:`Tracer.dump` writes them out once the run
ends.  Besides spans the tracer keeps three counters measured at the call
boundary: argument keys of the functions a memo could serve (for
``repeat_ratio``), integrand evaluations inside ``tanh_sinh``, and the
``levels_used``/``converged`` fields of each returned ``QuadResult``.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import defaultdict

# layer name -> defining module
LAYERS = {
    "runner": "modzeta.verify.runner",
    "registry": "modzeta.verify.registry",
    "theorems": "modzeta.verify.theorems",
    "series": "modzeta.series",
    "quadrature": "modzeta.quadrature",
    "eichler": "modzeta.eichler",
    "modular": "modzeta.modular",
    "arith": "modzeta.arith",
    "mpcore": "modzeta.mpcore",
}

# Functions whose argument keys are recorded: the boundaries at which the
# program's memos sit today, or where a shared memo would sit.
KEYED = {
    "eichler.eichler4", "eichler.eichler6",
    "theorems.q_ratios", "theorems.r_linear", "theorems.h3_ratios",
    "theorems.h3_linear",
    "mpcore.const_zeta", "arith.dirichlet_l",
}


def _arg_key(a):
    """Hashable identity of one argument; a precision context becomes its dps."""
    workdps = getattr(a, "workdps", None)
    if workdps is not None:
        return ("dps", workdps)
    try:
        hash(a)
    except TypeError:
        return repr(a)
    return a


class Tracer:
    """Span recorder for one traced process; create, :meth:`install`, run."""

    def __init__(self):
        self.names: list = []          # span name id -> "layer.function"
        self.spans: list = []          # (name id, start, end, parent, request)
        self._stack: list = []
        self.request = None
        self.keys = defaultdict(list)  # "layer.function" -> argument keys
        self.integrand_calls = 0
        self.quad_results: list = []   # (levels_used, converged)
        self.installed: dict = {}      # "layer.function" -> original function

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer, rebinding all aliases."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "modzeta" or name.startswith("modzeta."))]
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != modname):
                    continue
                name = "%s.%s" % (layer, attr)
                wrapper = self._wrap(fn, name)
                self.installed[name] = fn
                for m in mods:
                    for alias, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, alias, wrapper)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keys = self.keys[name] if name in KEYED else None
        tracer = self

        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.append(tuple(_arg_key(a) for a in args)
                            + tuple(sorted((k, _arg_key(v)) for k, v in kwargs.items())))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, tracer.request)

        if name == "quadrature.tanh_sinh":
            def quad_wrapper(f, *args, **kwargs):
                def counted(x):
                    tracer.integrand_calls += 1
                    return f(x)
                res = wrapper(counted, *args, **kwargs)
                tracer.quad_results.append((res.levels_used, bool(res.converged)))
                return res
            return quad_wrapper
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def overhead_per_span(self, n: int = 20000) -> float:
        """Seconds one span adds, measured on a no-op function in this process."""
        probe = Tracer()
        noop = probe._wrap(lambda: None, "probe.noop")
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        traced = time.perf_counter() - t0
        plain = lambda: None  # noqa: E731
        t0 = time.perf_counter()
        for _ in range(n):
            plain()
        return max(0.0, (traced - (time.perf_counter() - t0)) / n)

    # -- analysis -----------------------------------------------------------

    def summary(self):
        """Per-name call counts, self and inclusive seconds, and layer totals.

        Self time is a span's duration minus the durations of its direct
        children; inclusive time counts a span only when no span of the same
        layer encloses it, so nested calls within a layer are not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        layer_incl = defaultdict(float)
        layer_of = [n.split(".", 1)[0] for n in self.names]
        for i, (nid, t0, t1, parent, _) in enumerate(spans):
            name = self.names[nid]
            s = (t1 - t0) - child[i]
            calls[name] += 1
            self_s[name] += s
            layer_self[layer_of[nid]] += s
            p = parent
            while p >= 0 and layer_of[spans[p][0]] != layer_of[nid]:
                p = spans[p][3]
            if p < 0:
                layer_incl[layer_of[nid]] += t1 - t0
        return calls, self_s, layer_self, layer_incl

    def covered(self, exclude_layers=()) -> float:
        """Seconds covered by the union of spans outside ``exclude_layers``."""
        ivals = sorted((t0, t1) for nid, t0, t1, _, _ in self.spans
                       if self.names[nid].split(".", 1)[0] not in exclude_layers)
        total, end = 0.0, float("-inf")
        for t0, t1 in ivals:
            if t1 <= end:
                continue
            total += t1 - max(t0, end)
            end = t1
        return total

    def repeat_ratio(self, names) -> float:
        """1 - distinct argument keys / calls over the named functions."""
        ks = [(n, k) for n in names for k in self.keys.get(n, ())]
        return 1.0 - len(set(ks)) / len(ks) if ks else 0.0

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for nid, t0, t1, parent, req in self.spans:
                fh.write(json.dumps([self.names[nid], round(t0, 7), round(t1, 7),
                                     parent, req]) + "\n")
