"""Span recorder for the traced benchmark run.

``Tracer.install`` replaces every public function and method of the
``hardmono`` modules with a wrapper that records one span per call: name,
start, end, parent span and sample id.  It patches the defining module and
every place the function was imported into (``hardmono.cli.predict``,
``hardmono.ensemble.predict``, ...), including module-level dicts such as
``align.ALIGNERS`` that hold functions.  ``uninstall`` puts the originals
back.

The tape primitives of ``numcore`` (every op that builds a ``Node``, and
the ``Node`` methods) are not wrapped: a training sample runs about 800 of
them at a few microseconds each, so a span per op would cost about as much
as the op and swamp the layers above.  Their time stays in the self time of
the layer that called them.

A few spans feed counters that need the call's arguments or result (tape
size, decode outcomes, ensemble re-decodes).  That bookkeeping runs after
the span closes, inside a span of its own named ``perfbench.observe``, so
it does not inflate the layer it observes.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

MODULES = ("numcore", "nn", "hacm", "haem", "train", "decode", "align", "oracle",
           "ensemble", "serialize", "corpus", "metrics", "synth", "cli")

# numcore entry points that are not tape primitives
NUMCORE_WRAPPED = {"backward", "grad_check"}

OBSERVE = "perfbench.observe"


def _targets():
    """(owner, attribute, function, descriptor, span name) for every public
    function and method defined in the traced modules."""
    for short in MODULES:
        mod = importlib.import_module(f"hardmono.{short}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if short != "numcore" or name in NUMCORE_WRAPPED:
                    yield mod, name, obj, obj, f"{short}.{name}"
            elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and not issubclass(obj, BaseException) and short != "numcore"):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") and attr != "__call__":
                        continue
                    fn = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
                    if inspect.isfunction(fn):
                        yield obj, attr, fn, member, f"{short}.{obj.__name__}.{attr}"


def count_tape(loss) -> int:
    """Nodes reachable from ``loss`` through parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []   # (name, start, end, parent, sample)
        self.counters: Counter = Counter()
        self.sample: int | str = "setup"
        self._stack: list[int] = []
        self._stack_names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._dict_patches: list[tuple[dict, object, object]] = []
        self._evaluated: set[tuple[int, int]] = set()
        self._observers = {
            "numcore.backward": self._observe_backward,
            "decode.greedy_decode": self._observe_decode,
            "decode.post_filter": self._observe_filter,
            "train.predict": self._observe_predict,
        }

    # --- recording ---

    def record(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans, stack, names = self.spans, self._stack, self._stack_names
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        names.append(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            names.pop()
            spans[index] = (name, start, end, parent, self.sample)

    def _wrap(self, name: str, fn):
        record = self.record
        observer = self._observers.get(name)
        if observer is None:
            def traced(*args, **kwargs):
                return record(name, fn, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                result = record(name, fn, *args, **kwargs)
                record(OBSERVE, observer, args, kwargs, result)
                return result

        traced.__wrapped__ = fn
        traced.__name__, traced.__qualname__, traced.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
        return traced

    # --- observers: counters that need arguments or results ---

    def _observe_backward(self, args, kwargs, result) -> None:
        self.counters["tape_nodes"] += count_tape(args[0] if args else kwargs["loss"])

    def _observe_decode(self, args, kwargs, result) -> None:
        model, lemma = args[0], args[1]
        actions = result.trace.actions
        self.counters["decode_actions"] += len(actions)
        self.counters["length_cap_hits"] += result.terminated_by == "LENGTH_CAP"
        oov = 0
        if model.arch == "HACM":
            # an unseen attended character is written although it has no id
            oov = sum(1 for a in actions
                      if a.tag == "WRITE" and model.codec.write_id(a.char) is None)
        else:
            i = 1
            for a in actions:
                if a.tag in ("COPY", "DELETE"):
                    oov += a.tag == "COPY" and lemma[i - 1] not in model.vocab
                    i += 1
        self.counters["oov_copies"] += oov

    def _observe_filter(self, args, kwargs, result) -> None:
        self.counters["post_filter_calls"] += 1
        self.counters["filtered"] += bool(result.filtered)

    def _observe_predict(self, args, kwargs, result) -> None:
        key = (id(args[0]), id(args[1]))   # (model, sample) objects stay alive all run
        if "train.evaluate" in self._stack_names:
            self._evaluated.add(key)
        elif "ensemble.run_strategy" in self._stack_names:
            self.counters["member_predicts"] += 1
            self.counters["member_redecodes"] += key in self._evaluated

    # --- install / uninstall ---

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for owner, attr, fn, member, name in list(_targets()):
            wrapper = self._wrap(name, fn)
            if isinstance(member, (staticmethod, classmethod)):
                setattr(owner, attr, type(member)(wrapper))
            else:
                setattr(owner, attr, wrapper)
                wrappers[id(fn)] = wrapper
            self._patches.append((owner, attr, member))
        # the same functions under other names: imports and dicts of functions
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "hardmono":
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._dict_patches.append((value, k, v))
                            value[k] = wrappers[id(v)]

    def uninstall(self) -> None:
        for table, key, value in reversed(self._dict_patches):
            table[key] = value
        for owner, attr, member in reversed(self._patches):
            setattr(owner, attr, member)
        self._patches.clear()
        self._dict_patches.clear()

    # --- results ---

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        table: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += own
        return table

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent index,
        sample id."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
