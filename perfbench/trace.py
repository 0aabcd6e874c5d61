"""Span recording from outside the program.

The benchmark attributes wall time to layers without touching ``src/``:
:class:`Probes` swaps a layer's public functions, methods and generator
functions for thin wrappers that open a span on every call (or, for a
generator or coroutine, on every resume) and restores the originals on
exit.  :class:`SpanRecorder` keeps the spans in memory, accumulates each
layer's *self time* (its span durations minus the part covered by child
spans) and writes the spans out as JSON lines at the end of a run.

Spans nest strictly because every probed resume is a synchronous call:
the simulator resumes one process at a time, and asyncio runs one task
step at a time.  So the self times of all spans add up exactly to the
summed duration of the root spans, and whatever a traced pass spent
outside any root span is reported as unattributed.
"""

from __future__ import annotations

import json
import sys
import typing as _t
from collections import defaultdict
from time import perf_counter

__all__ = ["SpanRecorder", "Probes"]

# Span tuple layout, as recorded and as written out.
SPAN_FIELDS = ("id", "parent", "name", "start", "end", "request")
# How many spans a recorder stores for writing out; the per-layer
# totals always cover every span.
KEEP_SPANS = 50_000


class SpanRecorder:
    """In-memory span store with online self-time accounting.

    A span's self time is its duration minus its children's durations;
    the first ``KEEP_SPANS`` spans are stored for writing out.
    """

    def __init__(self, clock: _t.Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        self._stack: list[list] = []  # [id, name, start, child_s, request]
        self._next_id = 0
        self._next_request = 0

    def new_request(self) -> int:
        self._next_request += 1
        return self._next_request

    def current_request(self) -> int | None:
        return self._stack[-1][4] if self._stack else None

    def begin(self, name: str, request: int | None = None) -> list:
        stack = self._stack
        if request is None and stack:
            request = stack[-1][4]
        self._next_id += 1
        frame = [self._next_id, name, self.clock(), 0.0, request]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        now = self.clock()
        stack = self._stack
        if not stack or stack.pop() is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        duration = now - frame[2]
        self.self_s[frame[1]] += duration - frame[3]
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            self.root_s += duration
            parent_id = 0
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((frame[0], parent_id, frame[1], frame[2], now, frame[4]))
        else:
            self.dropped += 1

    def reset_totals(self) -> None:
        """Start a new accounting window (stored spans are kept)."""
        if self._stack:
            raise RuntimeError("cannot reset totals inside an open span")
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.root_s = 0.0

    def write(self, path: _t.Any) -> None:
        """Write the stored spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


class _TimedResumes:
    """Generator/coroutine proxy: one span per ``send``/``throw``.

    Works wherever the program drives the original object: a simulator
    process (``send``/``throw``), ``yield from`` and ``await``
    delegation, and asyncio task steps.  ``on_done`` (if given) gets the
    time from the first resume to completion.
    """

    __slots__ = ("_inner", "_rec", "_name", "_request", "_first", "_on_done")

    def __init__(self, inner, rec: SpanRecorder, name: str, request, on_done=None) -> None:
        self._inner = inner
        self._rec = rec
        self._name = name
        self._request = request
        self._first = None
        self._on_done = on_done

    def __iter__(self):
        return self

    def __await__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _step(self, method, *args):
        rec = self._rec
        frame = rec.begin(self._name, self._request)
        if self._first is None:
            self._first = frame[2]
        try:
            return method(*args)
        except BaseException:
            if self._on_done is not None:
                self._on_done(self._request, rec.clock() - self._first)
            raise
        finally:
            rec.end(frame)

    def send(self, value):
        return self._step(self._inner.send, value)

    def throw(self, *args):
        return self._step(self._inner.throw, *args)

    def close(self):
        return self._inner.close()


class Probes:
    """Install span probes on a layer's callables; undo them on exit.

    A module-level function is replaced wherever a loaded ``repro``
    module bound it (``from x import f`` copies the reference), so
    callers see the probe however they imported it.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._undo: list[tuple[_t.Any, str, _t.Any]] = []

    # -- wrappers -------------------------------------------------------------
    def timed_call(self, name: str, fn: _t.Callable) -> _t.Callable:
        rec = self.rec

        def probe(*args, **kwargs):
            rec.calls[name] += 1
            frame = rec.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(frame)

        probe.__wrapped__ = fn
        return probe

    def timed_resumes(
        self, name: str, fn: _t.Callable, *, new_request: bool = False, on_done=None
    ) -> _t.Callable:
        """Wrap a generator or ``async def`` function: time each resume."""
        rec = self.rec

        def probe(*args, **kwargs):
            rec.calls[name] += 1
            request = rec.new_request() if new_request else rec.current_request()
            return _TimedResumes(fn(*args, **kwargs), rec, name, request, on_done)

        probe.__wrapped__ = fn
        return probe

    # -- installation -----------------------------------------------------------
    def set(self, owner: _t.Any, attr: str, value: _t.Any) -> None:
        """Set ``owner.attr`` (class or module), remembering what to restore."""
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def function(
        self, module: _t.Any, attr: str, make: _t.Callable[[_t.Callable], _t.Callable]
    ) -> None:
        """Replace ``module.attr`` and every loaded ``repro`` alias of it."""
        original = getattr(module, attr)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, key, replacement)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self.restore()


_MISSING = object()


def install_substrate_probes(probes: Probes) -> None:
    """Spans around the substrate layers both runtimes call into."""
    from importlib import import_module

    from repro.classad.ads import ClassAd
    from repro.classad.collector import AdCollector
    from repro.hawkeye.agent import Agent
    from repro.hawkeye.manager import Manager
    from repro.ldap.dit import DIT
    from repro.mds.giis import GIIS
    from repro.mds.gris import GRIS
    from repro.mds.providers import InformationProvider
    from repro.relational.database import Database
    from repro.rgma.producer_servlet import ProducerServlet

    call = probes.timed_call
    for cls, attr, name in (
        (DIT, "search", "ldap.search"),
        (DIT, "add", "ldap.write"),
        (DIT, "upsert", "ldap.write"),
        (DIT, "delete", "ldap.write"),
        (InformationProvider, "produce", "mds.provider"),
        (GIIS, "query", "mds.giis_query"),
        (GRIS, "search", "mds.gris_search"),
        (Database, "execute", "relational.query"),
        (AdCollector, "query", "classad.query"),
        (AdCollector, "advertise", "classad.advertise"),
        (ClassAd, "serialize", "classad.serialize"),
        (Manager, "receive_ad", "hawkeye.ingest"),
        (Agent, "make_startd_ad", "hawkeye.advertise"),
        (ProducerServlet, "publish_all", "rgma.publish"),
    ):
        probes.set(cls, attr, call(name, cls.__dict__[attr]))
    # Submodules by full name: package namespaces re-export same-named functions.
    for module, attr, name in (
        ("repro.ldap.dn", "parse_dn", "ldap.dn_parse"),
        ("repro.ldap.ldif", "entry_to_ldif", "ldap.ldif"),
        ("repro.hawkeye.advertise", "synthesize_startd_ad", "hawkeye.advertise"),
        ("repro.relational.types", "encode_result", "relational.encode"),
    ):
        probes.function(import_module(module), attr, lambda fn, name=name: call(name, fn))
