"""Span tracer for cdhkit, installed from outside the library.

`Tracer.install` replaces every public function of the traced modules, and
every public method of each class they define, with a wrapper that records
a span.  A function imported by name into another module (`compose` in
`convergence`, `seq_zip` and `_wrap1` in `homeos` and `genpos`, `pow2`
and the scalar codecs nearly everywhere) is replaced at every name that
binds it.  `uninstall` puts the originals back.

Spans are recorded only inside `Tracer.op`, the benchmark's own span around
one build, verify or eval.  While `keep_spans` is set, every span is kept
in memory with its name, start, end, parent span and op id, and `write`
saves them at the end; the caller sets it for whole jobs, so a written op
is always complete.  For every span, kept or not, the tracer keeps call
counts and self times per name (span time minus the time of its child
spans), the exceptions raised through it, and how often it ran inside
selected other spans.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from workloads import scalar_bits

TRACED_MODULES = ("spaces", "homeos", "convergence", "genpos", "pairs", "rationals")
PRIVATE_TRACED = {"_wrap1"}

APPEND = "convergence.ConvergenceCertificate.append"
# (span, enclosing span): counted when the first returns inside the second
INSIDE = (
    ("homeos.compose", APPEND),
    (APPEND, "genpos.collision_repair_gpp"),
    ("pairs.ConvenientPair.s", "genpos.wgpp_transform"),
    ("pick_in", "genpos.greedy_dense_gp"),
)


class Tracer:
    def __init__(self, package, clients=()):
        """`clients` are further modules whose bindings of library functions
        are replaced too, such as the benchmark's own workload code."""
        self.package = package
        self.clients = tuple(clients)
        self.owners: dict = {}            # span name -> (module, class or None, attribute)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.raised: defaultdict = defaultdict(Counter)
        self.inside: Counter = Counter()
        self.maxima: Counter = Counter()
        self.module_self: defaultdict = defaultdict(float)   # (module, op kind) -> seconds
        self.keep_spans = False
        self.spans: list = []             # (id, name, start, end, parent id, op id)
        self.ops: list = []               # (op id, kind, wall seconds, library self seconds)
        self._stack: list = []            # open spans: [id, name, child seconds]
        self._active: Counter = Counter()
        self._next_id = 0
        self._op_id = None
        self._op_kind = None
        self._patches: list = []
        self._observe = self._observers()

    # -- installing ------------------------------------------------------------
    def install(self):
        modules = [getattr(self.package, m) for m in TRACED_MODULES]
        bound = [getattr(self.package, m) for m in dir(self.package)
                 if inspect.ismodule(getattr(self.package, m))] + list(self.clients)
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if not name.startswith("_") or name in PRIVATE_TRACED:
                        span = f"{short}.{name}"
                        self.owners[span] = (short, None, name)
                        wrappers[obj] = self._wrap(span, obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(short, obj)
        for module in bound:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])

    def _install_class(self, short, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            span = f"{short}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                wrapped = self._wrap(span, attr)
            elif isinstance(attr, (staticmethod, classmethod)):
                wrapped = type(attr)(self._wrap(span, attr.__func__))
            else:
                continue
            self.owners[span] = (short, cls, name)
            self._patch(cls, name, wrapped)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- recording -------------------------------------------------------------
    def _wrap(self, span, fn):
        tracer = self
        observe = self._observe.get(span)
        inside = [(outer, f"{span}@{outer}") for s, outer in INSIDE
                  if s == span or (s == "pick_in" and span.endswith(".pick_in"))]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [tracer._next_id, span, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            tracer._active[span] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[span][type(exc).__name__] += 1
                raise
            else:
                for outer, key in inside:
                    if tracer._active[outer]:
                        tracer.inside[key] += 1
                if observe is not None:
                    observe(result)
                return result
            finally:
                end = perf_counter()
                tracer._active[span] -= 1
                stack.pop()
                tracer._close(frame, start, end)

        return wrapper

    def _close(self, frame, start, end):
        span_id, span, child = frame
        duration = end - start
        self.calls[span] += 1
        self.self_s[span] += duration - child
        self.module_self[(span.split(".", 1)[0], self._op_kind)] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if self.keep_spans:
            self.spans.append((span_id, span, start, end, parent[0] if parent else None, self._op_id))

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation; library spans nest inside."""
        op_id = len(self.ops)
        frame = [self._next_id, f"op.{kind}", 0.0]
        self._next_id += 1
        self._op_id, self._op_kind = op_id, kind
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._close(frame, start, end)
            self._op_id = self._op_kind = None
            self.ops.append((op_id, kind, end - start, frame[2]))

    # -- result observers ---------------------------------------------------------
    def _observers(self) -> dict:
        def on_compose(h):
            breaks = getattr(h, "breaks", ())
            self.maxima["breaks"] = max(self.maxima["breaks"], len(breaks))
            self.maxima["table"] = max(self.maxima["table"], len(getattr(h, "table", ())))
            bits = max((scalar_bits(v) for b in breaks for v in b), default=0)
            self.maxima["value_bits"] = max(self.maxima["value_bits"], bits)

        def on_glue(pair):
            self.maxima["charts"] = max(self.maxima["charts"], len(pair.charts))
            on_pair(pair)

        def on_pair(pair):
            pair.s = self._wrap("pairs.ConvenientPair.s", pair.s)
            pair.t = self._wrap("pairs.ConvenientPair.t", pair.t)

        return {"homeos.compose": on_compose, "pairs.glue_pairs": on_glue,
                "pairs.group_pair": on_pair}

    # -- reading ---------------------------------------------------------------------
    def names(self, module=None, attr=None, base=None) -> list:
        """Span names selected by defining module, attribute and class."""
        out = []
        for span, (mod, cls, name) in self.owners.items():
            if module is not None and mod != module:
                continue
            if attr is not None and name not in attr:
                continue
            if base is not None and (cls is None or not issubclass(cls, base)):
                continue
            out.append(span)
        return out

    def total_calls(self, names) -> int:
        return sum(self.calls[n] for n in names)

    def total_self(self, names) -> float:
        return sum(self.self_s[n] for n in names)

    def write(self, path):
        with open(path, "w") as fh:
            for span_id, span, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": span, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
