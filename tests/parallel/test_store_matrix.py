"""One differential matrix: nothing but *when* work happens may change.

A sweep's results must be bit-identical across worker counts, frame
store modes, artifact store modes and telemetry sinks.  Every cell of
``jobs`` {1, 2} × frame store {off, on} × artifact store {off, on} ×
obs {none, in-memory} runs the same small grid (one LK and one MVE arm
over two short clips) on one of two reused engines, and must reproduce
the plain sequential sweep's digest.  Each cell also checks which store
backed it: ``none`` when off, ``private`` in-process at ``jobs=1``, and
``shared`` (cross-process segments, where the platform has them) in the
pool.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.core.config import PipelineConfig
from repro.experiments.workloads import quick_suite
from repro.obs import InMemorySink, Telemetry
from repro.parallel import SweepEngine, SweepResult
from repro.video import framestore
from repro.video.dataset import VideoSuite
from repro.vision import artifact_store

_METHODS = ("mpdt-320", "mve")  # one LK arm, one MVE arm
_FRAME_STORE_MB = 32
_ARTIFACT_STORE_MB = 96

_CELLS = list(
    itertools.product((1, 2), (0, _FRAME_STORE_MB), (0, _ARTIFACT_STORE_MB), (False, True))
)


def _suite() -> VideoSuite:
    suite = quick_suite(frames=24)
    return VideoSuite(name=suite.name, clips=suite.clips[:2])


def _digest(sweep: SweepResult) -> str:
    assert sweep.ok, sweep.summary()
    parts = []
    for name in _METHODS:
        result = sweep.results[name]
        assert len(result.runs) == len(result.per_video_accuracy)
        activity = result.activity
        parts.append(
            (
                name,
                result.per_video_accuracy,
                result.per_video_mean_f1,
                activity.duration,
                sorted(activity.gpu_busy.items()),
                sorted(activity.cpu_busy.items()),
                sorted(result.energy().as_dict().items()),
                # Every box of every frame: accuracy alone is too coarse
                # to see a tracker step that moved a box a little.
                [run.detections_per_frame() for run in result.runs],
            )
        )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _expected_mode(jobs: int, budget_mb: int) -> str:
    if budget_mb == 0:
        return "none"
    if jobs == 1 or not framestore.shared_store_available():
        return "private"
    return "shared"


@pytest.fixture(scope="module")
def engines():
    try:
        with SweepEngine(jobs=1) as sequential, SweepEngine(jobs=2) as pool:
            yield {1: sequential, 2: pool}
    finally:
        # Don't leak the parent's store budgets into other tests.
        framestore.configure_default(0)
        artifact_store.configure_default(0)


@pytest.fixture(scope="module")
def plain_digest(engines):
    off = PipelineConfig(frame_store_mb=0, artifact_store_mb=0)
    return _digest(engines[1].run(_METHODS, _suite(), config=off, keep_runs=True))


@pytest.mark.parametrize(
    "jobs,frame_mb,artifact_mb,traced",
    _CELLS,
    ids=[
        f"jobs{j}-frames{f}-artifacts{a}-{'memory' if t else 'null'}"
        for j, f, a, t in _CELLS
    ],
)
def test_cell_matches_plain_sequential(
    engines, plain_digest, jobs, frame_mb, artifact_mb, traced
):
    obs = Telemetry(InMemorySink()) if traced else None
    config = PipelineConfig(frame_store_mb=frame_mb, artifact_store_mb=artifact_mb)
    sweep = engines[jobs].run(
        _METHODS, _suite(), config=config, obs=obs, keep_runs=True
    )
    assert _digest(sweep) == plain_digest
    assert sweep.store_mode == _expected_mode(jobs, frame_mb)
    assert sweep.artifact_store_mode == _expected_mode(jobs, artifact_mb)
    if traced:
        assert obs.sink.spans  # telemetry was really recorded
