"""Process-parallel execution of scenario specs.

:class:`ParallelExecutor` is deliberately small: resolve cache hits,
group the misses into units of work, run the units on a process pool
(or inline for ``jobs=1``), write each unit's results through to the
cache as it completes, and return results in spec order.  A unit is one
spec, or the specs that share a source run
(:func:`~repro.runner.tasks.unit_source`: the paired-link figures of one
seed), which runs once for all of them.  Because every spec carries its
own seed, the results are bit-identical regardless of ``jobs``.

Observability (all off by default): a :class:`~repro.obs.trace.RunTracer`
receives one span per unit and cache hit/miss events, ``profile=True``
wraps each unit in cProfile, and ``on_task_done`` delivers live progress
callbacks — ``(done, total, run)`` — as units complete.  None of these
change what is executed or cached, only what is observed about it.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Hashable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from functools import partial
from typing import TYPE_CHECKING, Any

from repro.runner.cache import ResultCache
from repro.runner.spec import ScenarioSpec, content_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import RunTracer, TaskRun

__all__ = ["ParallelExecutor", "run_specs"]


class ParallelExecutor:
    """Runs scenario specs serially or across worker processes.

    Parameters
    ----------
    jobs:
        Number of worker processes.  ``1`` (the default) runs every spec
        in the current process with no pool overhead; ``None`` or any
        value below 1 means "one per CPU".
    cache:
        Optional :class:`ResultCache`.  Hits skip execution entirely;
        fresh results are stored as each unit of work completes.
    tracer:
        Optional :class:`~repro.obs.trace.RunTracer`: receives a span per
        executed unit and a cache event per lookup.
    profile:
        Wrap each executed unit in cProfile; the hotspot rows travel back
        on the spans (requires a ``tracer`` to go anywhere).
    on_task_done:
        Optional live-progress callback, invoked in the parent process as
        ``on_task_done(done, total, run)`` after each unit completes.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache: ResultCache | None = None,
        tracer: RunTracer | None = None,
        profile: bool = False,
        on_task_done: Callable[[int, int, TaskRun], None] | None = None,
    ):
        if jobs is None or jobs < 1:
            jobs = os.cpu_count() or 1
        self.jobs = int(jobs)
        self.cache = cache
        self.tracer = tracer
        self.profile = profile
        self.on_task_done = on_task_done

    def _observing(self) -> bool:
        return self.tracer is not None or self.profile or self.on_task_done is not None

    def run(self, spec: ScenarioSpec) -> Any:
        """Execute a single spec (through the cache if one is set)."""
        return self.map([spec])[0]

    def map(self, specs: Iterable[ScenarioSpec], keys: Sequence[str] | None = None) -> list[Any]:
        """Execute specs and return their results in input order.

        ``keys`` are the specs' content keys, when the caller already
        holds them (a compiled campaign does); only a cache reads them,
        and they are computed when not given.
        """
        specs = list(specs)
        results: list[Any] = [None] * len(specs)
        cache_keys: Sequence[str] = ()
        pending: list[int] = []

        if self.cache is None:
            pending = list(range(len(specs)))
        else:
            cache_keys = [content_key(spec) for spec in specs] if keys is None else keys
            for i, (spec, key) in enumerate(zip(specs, cache_keys, strict=True)):
                hit, value = self.cache.get(key)
                if self.tracer is not None:
                    self.tracer.cache_event(hit, spec.label or spec.task)
                if hit:
                    results[i] = value
                else:
                    pending.append(i)
        if not pending:
            return results

        units = _units(specs, pending)

        def store(unit: int, values: Sequence[Any]) -> None:
            # Write through: a unit's results reach the cache as soon as
            # it completes, so a later failure keeps the finished work.
            for i, value in zip(units[unit], values, strict=True):
                results[i] = value
                if self.cache is not None:
                    self.cache.put(cache_keys[i], value)

        self._execute([[specs[i] for i in unit] for unit in units], store)
        return results

    def _execute(
        self,
        units: Sequence[Sequence[ScenarioSpec]],
        done: Callable[[int, Sequence[Any]], None],
    ) -> None:
        """Run each unit, calling ``done(index, results)`` as each completes."""
        from repro.runner.tasks import run_unit

        work: Callable[[Sequence[ScenarioSpec]], Any] = run_unit
        finish: Callable[[int, Any], None] = done
        if self._observing():
            from repro.obs.trace import observe_unit

            work = partial(observe_unit, profile=self.profile)
            finish = self._observed(done, len(units))

        if self.jobs == 1 or len(units) == 1:
            for index, unit in enumerate(units):
                finish(index, work(unit))
            return
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(units))) as pool:
            futures = {pool.submit(work, unit): index for index, unit in enumerate(units)}
            for future in as_completed(futures):
                finish(futures[future], future.result())

    def _observed(
        self, done: Callable[[int, Sequence[Any]], None], total: int
    ) -> Callable[[int, TaskRun], None]:
        """``done`` for observed units: unwrap each span, then report it."""
        completed = 0

        def fold(index: int, run: TaskRun) -> None:
            nonlocal completed
            completed += 1
            done(index, run.result)
            if self.tracer is not None:
                self.tracer.task(run)
            if self.on_task_done is not None:
                self.on_task_done(completed, total, run)

        return fold


def _units(specs: Sequence[ScenarioSpec], pending: Iterable[int]) -> list[list[int]]:
    """Group pending spec indices into units of work, in first-seen order.

    Specs that share a source run (equal
    :func:`~repro.runner.tasks.unit_source`) form one unit; every other
    spec is a unit of its own.
    """
    from repro.runner.tasks import unit_source

    units: list[list[int]] = []
    shared: dict[Hashable, list[int]] = {}
    for i in pending:
        source = unit_source(specs[i])
        if source is None:
            units.append([i])
        elif source in shared:
            shared[source].append(i)
        else:
            shared[source] = [i]
            units.append(shared[source])
    return units


def run_specs(
    specs: Iterable[ScenarioSpec],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> list[Any]:
    """Convenience wrapper: build an executor and map the specs."""
    return ParallelExecutor(jobs=jobs, cache=cache).map(specs)
