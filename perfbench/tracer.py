"""Layer spans recorded from outside the program.

The benchmark times each ``src/repro`` layer by wrapping the layer's
public entry points: :func:`install` replaces each target function or
method with a wrapper that opens a span on entry and closes it on exit,
and :meth:`Installed.uninstall` puts the originals back.  Nothing inside
``src/repro`` is edited.

Spans live in memory as rows ``[layer, start, end, parent, n]`` (times
from ``time.perf_counter``, which is one system-wide monotonic clock on
Linux, so rows from pool workers line up with the parent's).  ``n`` is a
per-span count: LK points tracked, or 1 for a store ``get`` that hit.
:func:`summarise` turns rows into per-layer counts and self times, where
a span's self time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

_perf = time.perf_counter


class Tracer:
    """An in-memory span stack for one thread of one process."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, _perf(), 0.0, parent, 0])
        self._stack.append(index)
        return index

    def close(self, index: int, n: int = 0) -> None:
        row = self.spans[index]
        row[2] = _perf()
        row[4] = n
        self._stack.pop()

    def take(self) -> list[list[Any]]:
        """Hand over every closed span and start empty."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        spans, self.spans = self.spans, []
        return spans


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``where`` is ``"module:attr"`` for a function or ``"module:Class.attr"``
    for a method.  A function is rebound in every loaded ``repro`` module
    that imported it by name, unless ``bindings`` lists the only modules
    to rebind.  ``guard(args)`` false means "call through untraced";
    ``count(args, result)`` gives the span's ``n``.
    """

    layer: str
    where: str
    bindings: tuple[str, ...] | None = None
    guard: Callable[[tuple], bool] | None = None
    count: Callable[[tuple, Any], int] | None = None


@functools.cache
def _frame_store_types() -> tuple[type, ...]:
    from repro.video.framestore import FrameStore, SharedFrameStore

    return FrameStore, SharedFrameStore


def _is_frame_store(args: tuple) -> bool:
    # The artifact store's backings subclass the frame stores; their
    # traffic is already covered by the vision.artifact_store spans.
    store = args[0]
    return type(store) in _frame_store_types() and store.enabled


def _hit(args: tuple, result: Any) -> int:
    return 0 if result is None else 1


def _points(args: tuple, result: Any) -> int:
    return len(args[2]) if len(args) > 2 else 0


TARGETS: tuple[Target, ...] = (
    Target("video.render", "repro.video.render:FrameRenderer.render"),
    Target("video.framestore.get", "repro.video.framestore:FrameStore.get",
           guard=_is_frame_store, count=_hit),
    Target("video.framestore.put", "repro.video.framestore:FrameStore.put",
           guard=_is_frame_store),
    Target("video.framestore.get", "repro.video.framestore:SharedFrameStore.get",
           guard=_is_frame_store, count=_hit),
    Target("video.framestore.put", "repro.video.framestore:SharedFrameStore.put",
           guard=_is_frame_store),
    Target("vision.pyramid", "repro.vision.optical_flow:FramePyramid.__init__"),
    # Only the pyramid's own gradient memo: feature scoring computes
    # gradients too, and that belongs to vision.features.
    Target("vision.gradients", "repro.vision.image:image_gradients",
           bindings=("repro.vision.optical_flow",)),
    Target("vision.artifact_store.get", "repro.vision.artifact_store:ArtifactStore.get",
           count=_hit),
    Target("vision.artifact_store.put", "repro.vision.artifact_store:ArtifactStore.put"),
    Target("vision.features", "repro.vision.features:good_features_to_track"),
    Target("vision.features", "repro.vision.fast:fast_corners"),
    Target("vision.lk", "repro.vision.optical_flow:track_features", count=_points),
    Target("vision.block_motion", "repro.vision.block_motion:block_motion_field"),
    Target("tracking", "repro.tracking.tracker:ObjectTracker.track_to"),
    Target("tracking", "repro.tracking.mve:MVETracker.track_to"),
    Target("detection", "repro.detection.detector:SimulatedYOLOv3.detect"),
    Target("core", "repro.core.mpdt:MPDTPipeline.run"),
    Target("core", "repro.core.adavp:AdaVP.process"),
    Target("baselines", "repro.baselines.marlin:MarlinPipeline.run"),
    Target("baselines", "repro.baselines.no_tracking:NoTrackingPipeline.run"),
    Target("metrics.evaluate", "repro.experiments.runners:evaluate_run"),
    Target("serve", "repro.serve.scheduler:ServeScheduler.run"),
)

# Modules imported before wrapping, so that every by-name binding of a
# target function already exists when install() rebinds it.
_PRELOAD = (
    "repro.experiments.runners",
    "repro.parallel.engine",
    "repro.serve.scheduler",
    "repro.tracking.mve",
    "repro.tracking.tracker",
    "repro.vision.artifact_store",
    "repro.vision.pyramid_cache",
)


def _wrap(tracer: Tracer, target: Target, original: Callable) -> Callable:
    layer, guard, count = target.layer, target.guard, target.count

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if guard is not None and not guard(args):
            return original(*args, **kwargs)
        index = tracer.open(layer)
        n = 0
        try:
            result = original(*args, **kwargs)
            if count is not None:
                n = count(args, result)
            return result
        finally:
            tracer.close(index, n)

    return traced


@dataclass
class Installed:
    """The wrappers one :func:`install` call put in place."""

    tracer: Tracer
    _undo: list[tuple[Any, str, Any]] = field(default_factory=list)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer, targets: tuple[Target, ...] = TARGETS) -> Installed:
    """Wrap every target so that calls record spans into ``tracer``."""
    for name in _PRELOAD:
        importlib.import_module(name)
    installed = Installed(tracer)
    for target in targets:
        module_name, _, path = target.where.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            installed._undo.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, target, original))
            continue
        original = getattr(module, path)
        wrapped = _wrap(tracer, target, original)
        names = target.bindings or tuple(
            name for name, mod in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and getattr(mod, path, None) is original
        )
        for name in names:
            owner = sys.modules[name]
            installed._undo.append((owner, path, original))
            setattr(owner, path, wrapped)
    return installed


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    n: int = 0
    # Time of the spans whose count was non-zero (store gets that hit).
    n_time_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def summarise(spans: list[list[Any]], roots: str) -> tuple[dict[str, LayerStats], float, float]:
    """(per-layer stats, root wall, root wall no child covers).

    Rows are in open order and a child always opens after its parent, so
    one pass in reverse sees every child before its parent.  ``roots``
    names the layer whose spans stand for whole operations (a shard, a
    stream pass, a ladder); their uncovered time is the unattributed part.
    """
    covered = [0.0] * len(spans)
    stats: dict[str, LayerStats] = {}
    root_wall = 0.0
    root_uncovered = 0.0
    for index in range(len(spans) - 1, -1, -1):
        layer, start, end, parent, n = spans[index]
        duration = end - start
        if parent >= 0:
            covered[parent] += duration
        if layer == roots:
            root_wall += duration
            root_uncovered += duration - covered[index]
            continue
        entry = stats.setdefault(layer, LayerStats())
        entry.calls += 1
        entry.self_s += duration - covered[index]
        entry.total_s += duration
        entry.n += n
        if n:
            entry.n_time_s += duration
        entry.durations.append(duration)
    return stats, root_wall, root_uncovered
