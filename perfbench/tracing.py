"""Span tracing installed around calls into ``repro``'s layers at run time.

The benchmark's traced pass wraps the public entry points of each layer
(:data:`BOUNDARIES`) in a timing wrapper, runs the workload's batch, and
removes every wrapper again.  The program's own code is never edited:
methods are replaced on their class and functions on every ``repro``
module that binds them, and :meth:`Tracer.uninstall` puts the originals
back.

Each wrapped call is one span.  A span's *self time* is its duration
minus the time covered by the spans it encloses, minus the wrappers' own
cost per enclosed span (measured when the tracer is installed); summing
self time over the span names of one layer gives the layer's self time.  Per span name
the tracer keeps ``calls``, ``total_s``, ``self_s`` and ``outer_s``
(the duration of calls not nested in another call of the same name).  Spans of the
coarse boundaries (one per simulation, shard batch, cache lookup, ...)
are also kept as records — name, start, end, span id, parent id, op id —
and written out when the pass ends; per-event boundaries (scheduler
pushes, enqueues, acks) are only aggregated, so memory stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "BOUNDARIES",
    "LAYERS",
    "Boundary",
    "Tracer",
    "installed_wrappers",
]

#: Attribute set on every wrapper, so a wrapped target can be recognised.
MARKER = "__perfbench_span__"


@dataclass(frozen=True)
class Boundary:
    """One layer entry point: ``module:Class.attr`` or ``module:function``.

    ``keep`` boundaries record one span per call; the rest are per-event
    boundaries that are only aggregated.  ``factory`` boundaries return a
    callback (the network's departure/drop handlers): the wrapper traces
    the callback they return, not the factory call.  ``sized`` boundaries
    also sum ``len()`` of what each call returns.
    """

    layer: str
    target: str
    keep: bool = False
    factory: bool = False
    sized: bool = False

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.target.split(':')[1]}"


_P = "repro.netsim.packet"

#: Every traced boundary, by layer (named after ``src/repro`` modules).
BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("netsim.packet.simulation", f"{_P}.simulation:simulate", keep=True),
    Boundary("netsim.packet.engine", f"{_P}.engine:EventScheduler.run", keep=True),
    Boundary("netsim.packet.engine", f"{_P}.engine:EventScheduler.schedule"),
    Boundary("netsim.packet.engine", f"{_P}.engine:CalendarScheduler.run", keep=True),
    Boundary("netsim.packet.engine", f"{_P}.engine:CalendarScheduler.schedule"),
    Boundary("netsim.packet.tcp", f"{_P}.tcp.base:TcpSender.start"),
    Boundary("netsim.packet.tcp", f"{_P}.tcp.base:TcpSender.handle_ack"),
    Boundary("netsim.packet.tcp", f"{_P}.tcp.base:TcpSender.handle_loss"),
    Boundary("netsim.packet.tcp", f"{_P}.tcp.base:TcpSender._pacing_timer_fired"),
    Boundary("netsim.packet.queue", f"{_P}.queue:QueueDiscipline.enqueue"),
    Boundary("netsim.packet.queue", f"{_P}.queue:QueueDiscipline._finish_service"),
    Boundary("netsim.packet.packets", f"{_P}.packets:PacketPool.acquire"),
    Boundary("netsim.packet.packets", f"{_P}.packets:PacketPool.release"),
    Boundary("netsim.packet.network", f"{_P}.network:Network.run", keep=True),
    Boundary("netsim.packet.network", f"{_P}.network:Network._ingress"),
    Boundary("netsim.packet.network", f"{_P}.network:Network._notify_loss"),
    Boundary("netsim.packet.network", f"{_P}.network:Network._departure_handler", factory=True),
    Boundary("netsim.packet.network", f"{_P}.network:Network._drop_handler", factory=True),
    Boundary("netsim.packet.network.build", f"{_P}.network:Network.__init__", keep=True),
    Boundary("netsim.packet.network.build", f"{_P}.network:Network.add_flow"),
    Boundary("netsim.packet.network.build", f"{_P}.network:Network.add_queue"),
    Boundary("netsim.packet.network.build", f"{_P}.network:Network.add_traffic_source"),
    Boundary("netsim.fleet", "repro.netsim.fleet.engine:run_fleet", keep=True),
    Boundary("netsim.fleet", "repro.netsim.fleet.engine:shard_specs", keep=True),
    Boundary("netsim.fleet", "repro.netsim.fleet.spec:fleet_assignment", keep=True),
    Boundary("netsim.fleet.couple", "repro.netsim.fleet.hybrid:couple_fleet", keep=True),
    Boundary("netsim.fleet.merge", "repro.netsim.fleet.aggregate:ShardStats.merge"),
    Boundary("runner.executor", "repro.runner.executor:ParallelExecutor.map", keep=True),
    Boundary("runner.spec", "repro.runner.spec:content_key"),
    Boundary("runner.cache", "repro.runner.cache:ResultCache.get", keep=True),
    Boundary("runner.cache", "repro.runner.cache:ResultCache.put", keep=True),
    Boundary(
        "workload", "repro.workload.netflix:PairedLinkWorkload.generate", keep=True, sized=True
    ),
    Boundary("core.analysis", "repro.core.analysis.pipeline:analyze_metric", keep=True),
    Boundary("core.analysis", "repro.core.analysis.aggregation:aggregate_hourly"),
    Boundary("core.analysis", "repro.core.analysis.aggregation:aggregate_by_account"),
    Boundary("core.analysis", "repro.core.analysis.regression:treatment_effect_regression"),
    Boundary("core.analysis", "repro.core.analysis.newey_west:newey_west_covariance"),
    Boundary("netsim.fluid", "repro.netsim.fluid.lab:run_lab_sweep", keep=True),
    Boundary("netsim.fluid", "repro.netsim.fluid.lab:run_lab_experiment"),
    Boundary("netsim.fluid", "repro.netsim.fluid.lab:run_isolated_sweep"),
    Boundary("netsim.fluid", "repro.netsim.fluid.competition:allocate_throughput"),
    Boundary("netsim.fluid", "repro.netsim.fluid.competition:link_loss_rate"),
    Boundary("campaign.load", "repro.campaign.loader:load_campaign", keep=True),
    Boundary("campaign.compile", "repro.campaign.spec:CampaignSpec.arms", keep=True),
)

#: Layer names, in catalogue order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(b.layer for b in BOUNDARIES))


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a ``module:qualname`` target."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def _repro_namespaces() -> list[Any]:
    """Imported ``repro`` modules, whose globals may bind a traced function."""
    return [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and getattr(module, "__dict__", None)
    ]


def installed_wrappers() -> list[str]:
    """Names of the tracing wrappers currently reachable from ``repro``.

    Looks at the class of every method boundary and at the globals of
    every imported ``repro`` module; imports nothing itself.
    """
    found = set()
    for boundary in BOUNDARIES:
        if boundary.target.split(":")[0] in sys.modules:
            _, _, current = _resolve(boundary.target)
            if hasattr(current, MARKER):
                found.add(getattr(current, MARKER))
    for module in _repro_namespaces():
        for value in list(vars(module).values()):
            if callable(value) and hasattr(value, MARKER):
                found.add(getattr(value, MARKER))
    return sorted(found)


class Tracer:
    """Collects spans from wrappers installed on :data:`BOUNDARIES`.

    Use as a context manager: wrappers are installed on entry and
    removed on exit, also when the pass raises.  Boundaries of layers
    starting with one of ``skip`` are left alone: code that runs in
    forked worker processes would inherit their wrappers, and the spans
    recorded there never reach this process.
    """

    def __init__(self, skip: tuple[str, ...] = ()) -> None:
        self.skip = skip
        #: span name -> [calls, total_s, self_s, outer_s, open calls]
        self.stats: dict[str, list[float]] = {}
        #: span name -> summed len() of the results of ``sized`` boundaries
        self.sizes: dict[str, int] = {}
        #: kept span records: (name, start, end, span id, parent id, op id)
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        #: Id of the workload operation the current spans belong to.
        self.op = 0
        #: [child_s, span id, child calls] per open span
        self._stack: list[list[float]] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple[Any, str, Any]] = []
        #: Seconds a wrapper adds to its caller's self time per call,
        #: measured by :meth:`calibrate` and subtracted from self times.
        self.overhead_s = 0.0

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self, fn: Callable[..., Any], name: str, keep: bool, sized: bool = False
    ) -> Callable[..., Any]:
        """A wrapper timing each call of ``fn`` as one span named ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
        sizes = self.sizes
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        tracer = self
        overhead = self.overhead_s

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, next(ids), 0]
            parent = int(stack[-1][1]) if stack else 0
            stack.append(frame)
            stats[4] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                    stack[-1][2] += 1
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0] - frame[2] * overhead
                stats[4] -= 1
                if not stats[4]:
                    stats[3] += duration
                if keep:
                    spans.append((name, start, end, int(frame[1]), parent, tracer.op))
            if sized:
                sizes[name] = sizes.get(name, 0) + len(result)
            return result

        setattr(traced, MARKER, name)
        return traced

    def _factory_wrapper(self, factory: Callable[..., Any], name: str) -> Callable[..., Any]:
        wrap = self.wrap

        @functools.wraps(factory)
        def traced_factory(*args: Any, **kwargs: Any) -> Any:
            return wrap(factory(*args, **kwargs), name, False)

        setattr(traced_factory, MARKER, name)
        return traced_factory

    # -- install / uninstall -----------------------------------------------

    def calibrate(self, calls: int = 20_000) -> float:
        """Measure :attr:`overhead_s`: the self time a wrapped call adds
        to its caller beyond an unwrapped call of the same function."""

        def noop() -> None:
            pass

        self.overhead_s = 0.0
        child = self.wrap(noop, "calibrate:child", False)

        def loop(fn: Callable[[], None]) -> None:
            for _ in range(calls):
                fn()

        start = time.perf_counter()
        loop(noop)
        bare = time.perf_counter() - start
        self.wrap(loop, "calibrate:parent", False)(child)
        wrapped = self.stats["calibrate:parent"][2]
        del self.stats["calibrate:child"], self.stats["calibrate:parent"]
        self.overhead_s = max((wrapped - bare) / calls, 0.0)
        return self.overhead_s

    def install(self) -> None:
        """Wrap every boundary (methods on their class, functions wherever bound)."""
        self.calibrate()
        for boundary in BOUNDARIES:
            if boundary.layer.startswith(self.skip):
                continue
            owner, attr, original = _resolve(boundary.target)
            if boundary.factory:
                wrapper = self._factory_wrapper(original, boundary.name)
            else:
                wrapper = self.wrap(original, boundary.name, boundary.keep, boundary.sized)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapper)
                continue
            # A function is also bound by name in every module that
            # imported it (``from x import f``): replace all of them.
            for module in _repro_namespaces():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, original, wrapper)

    def _replace(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back (in reverse order of installation)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        # A module imported while the wrappers were installed bound a
        # wrapper by name; unwrap those too.
        for module in _repro_namespaces():
            for key, value in list(vars(module).items()):
                if callable(value) and hasattr(value, MARKER):
                    setattr(module, key, value.__wrapped__)

    def __enter__(self) -> Tracer:
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def calls(self, layer: str, attr: str | None = None) -> int:
        """Calls into a layer (or into one of its boundaries)."""
        return int(sum(s[0] for n, s in self._matching(layer, attr)))

    def total_s(self, layer: str, attr: str | None = None) -> float:
        """Summed span duration of a layer's (or one boundary's) calls."""
        return sum(s[1] for n, s in self._matching(layer, attr))

    def outer_s(self, layer: str, attr: str | None = None) -> float:
        """Like :meth:`total_s`, counting only calls not nested in a call
        of the same boundary (an executor map inside an executor task)."""
        return sum(s[3] for n, s in self._matching(layer, attr))

    def self_s(self, layer: str) -> float:
        """A layer's self time: its spans minus the spans they enclose and
        the wrappers' cost per enclosed span."""
        return sum(s[2] for n, s in self._matching(layer, None))

    def _matching(self, layer: str, attr: str | None) -> list[tuple[str, list[float]]]:
        return [
            (name, stats)
            for name, stats in self.stats.items()
            if name.split(":")[0] == layer
            and (attr is None or name.split(":")[1].endswith(attr))
        ]

    def write(self, path: Path) -> None:
        """Write the kept spans (one JSON object per line) and the rollup."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, span, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "id": span, "parent": parent, "op": op}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"rollup": self.stats}, sort_keys=True) + "\n")
