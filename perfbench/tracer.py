"""Outside-in tracing of vclab's layers, installed from the benchmark only.

``Tracer.install`` replaces every public function of each vclab module with a
timing wrapper, both where it is defined and at every name another module
bound with ``from .x import y``, plus a few named methods and private steps
the per-layer metrics need.  A wrapper keeps a span stack so each function's
self time excludes the wrapped calls it makes.  ``Tracer.uninstall`` puts
every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Any, Callable

MODULES = ("words", "oracles", "equations", "testwords", "hypgeom", "quasimorphisms", "finitegroups", "presentations", "cli")

# methods and private steps that carry per-layer metrics
EXTRA = {
    "words": {"Word": ("__mul__", "__pow__", "inverse", "cyclic_reduce")},
    "hypgeom": {"FiniteMetricSpace": ("dist",)},
    "finitegroups": {"FiniteGroup": ("evaluate_word",)},
    "testwords": {None: ("_letter_evaluate",)},
}

MUL = "words.Word.__mul__"
ENUMERATE = "words.enumerate_reduced"
# work sizes summed per call: syllables entering a product, letters entering root
SIZES: dict[str, Callable[..., int]] = {
    MUL: lambda u, v: len(u.syllables) + len(v.syllables),
    "oracles.root": lambda w: len(w),
}


class Stat:
    """Counters for one wrapped function."""

    __slots__ = ("calls", "total_s", "self_s", "size", "items", "inner_muls", "inner_words")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.size = 0  # summed SIZES entry
        self.items = 0  # values yielded, for generator functions
        self.inner_muls = 0  # word products made inside the span, its own included
        self.inner_words = 0  # words enumerated inside the span

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def span_name(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # child time accumulated by each open span
        self._patches: list[tuple[Any, str, Any]] = []
        self._wrappers: dict[int, Callable] = {}

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable) -> Callable:
        known = self._wrappers.get(id(fn))
        if known is not None:
            return known
        name = span_name(fn)
        stat, stack, clock = self.stat(name), self._stack, time.perf_counter
        mul, enum = self.stat(MUL), self.stat(ENUMERATE)
        size = SIZES.get(name)

        def close(start: float, muls: int, words: int) -> None:
            elapsed = clock() - start
            inner = stack.pop()
            if stack:
                stack[-1] += elapsed
            stat.calls += 1
            stat.total_s += elapsed
            stat.self_s += elapsed - inner
            stat.inner_muls += mul.calls - muls
            stat.inner_words += enum.items - words

        if inspect.isgeneratorfunction(fn):
            # each resumption is a span, so the work of producing a value is
            # charged to the generator rather than to its consumer
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    muls, words, start = mul.calls, enum.items, clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(start, muls, words)
                    stat.items += 1
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if size is not None:
                    stat.size += size(*args, **kwargs)
                stack.append(0.0)
                muls, words, start = mul.calls, enum.items, clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(start, muls, words)

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _patch(self, owner: Any, attr: str, original: Any, fn: Callable) -> None:
        wrapped = self._wrap(fn)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"vclab.{name}") for name in MODULES}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__.startswith("vclab."):
                    self._patch(module, attr, obj, obj)
        for mod_name, owners in EXTRA.items():
            module = modules[mod_name]
            for owner_name, attrs in owners.items():
                owner = module if owner_name is None else getattr(module, owner_name)
                for attr in attrs:
                    original = vars(owner)[attr]
                    self._patch(owner, attr, original, getattr(original, "__func__", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._wrappers.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
