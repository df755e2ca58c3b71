"""Spans and counters around the package's public functions.

The benchmark never edits the package.  ``Tracer.install`` replaces each
public function of the layer modules, in every ``cheblink`` namespace that
holds a reference to it, with a wrapper that records a span (name, start,
end, parent span, job) in memory; ``uninstall`` puts the originals back.
Functions called hundreds of thousands of times per job (group
multiplication, class lookup, word evaluation) only count their calls, so
their time stays in the self time of the span that called them.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("permgroup", "freewords", "covers", "sft", "quotients", "cli")

# counted, not timed: a span each would cost more than the call itself
COUNT_ONLY = frozenset({
    "permgroup.mul", "permgroup.class_index", "permgroup.compose",
    "freewords.evaluate", "freewords.reduce", "freewords.cyclic_reduce",
})

# methods on the package's classes that are wrapped like functions
METHODS = (("permgroup", "FiniteGroup", "mul"),)


def _quotient_search_hook(counts, args, kwargs, result):
    presentation, target = args[0], args[1]
    counts["quotients.quotient_search.homs"] += len(result)
    counts["quotients.quotient_search.candidates"] += target.order ** presentation.generator_count


RESULT_HOOKS = {"quotients.quotient_search": _quotient_search_hook}


class Tracer:
    """In-memory span and call-count recorder for one traced section."""

    def __init__(self):
        self.spans: list[tuple] = []      # (name, start, end, parent, job)
        self.counts: Counter = Counter()   # named counts from RESULT_HOOKS
        self._calls: dict[str, list] = {}
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ recording

    def span(self, name: str):
        """Context manager for a span the benchmark itself opens."""
        return _Span(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans[idx] = (name, perf_counter(), 0.0, parent, self.job)
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, _, parent, job = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, job)

    def _wrap(self, name: str, fn):
        # one list cell per wrapper: cheaper per call than a keyed Counter
        calls = self._calls.setdefault(name, [0])
        if inspect.isgeneratorfunction(fn):
            yielded = self._calls.setdefault(name + ".yielded", [0])

            def gen_wrapper(*args, **kwargs):
                calls[0] += 1
                for item in fn(*args, **kwargs):
                    yielded[0] += 1
                    yield item
            return gen_wrapper
        if name in COUNT_ONLY:
            def count_wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return count_wrapper
        hook = RESULT_HOOKS.get(name)
        counts = self.counts

        def span_wrapper(*args, **kwargs):
            calls[0] += 1
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return span_wrapper

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever the
        package holds a reference to it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cheblink" or name.startswith("cheblink."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"cheblink.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"cheblink.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------ results

    def call_counts(self) -> Counter:
        """Calls per wrapped function (``<name>.calls``), items yielded by
        generator functions (``<name>.yielded``) and the named counts."""
        out = Counter(self.counts)
        for name, cell in self._calls.items():
            out[name if name.endswith(".yielded") else name + ".calls"] += cell[0]
        return out

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self and inclusive time per span name.  Self time is a span's
        duration minus the time covered by its child spans (children nest,
        so their durations simply add up)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            total_s[name] += end - start
        return dict(self_s), dict(total_s)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
