"""Threaded live executor: the paper's three-thread implementation (§IV-B, §V).

The deterministic simulator (used by every experiment) models time; this
module actually *runs* the MPDT structure with Python threads, locks, and
events, the way the paper implements it on the TX2:

- a **camera thread** pushes frames into the shared :class:`FrameBuffer`
  at the capture rate;
- a **detector thread** fetches the newest frame, runs the (simulated)
  DNN — sleeping for the model latency — and publishes the result;
- a **tracker thread** seeds from the latest detection and tracks the
  frames accumulated behind the detector, cancelling its remaining tasks
  whenever a fresh detection arrives (the paper's synchronisation rule);
- the main thread assembles the displayed per-frame results.

``time_scale`` compresses all latencies so a 10-second clip can be
"lived" in seconds during tests; 1.0 reproduces TX2 pacing.  Very small
scales starve the camera thread on few-core machines (the GIL serialises
the numpy work), which degenerates the pipeline into detection-only — 0.2
is a safe floor on a single core.
Thread scheduling makes runs non-deterministic, which is exactly why the
experiments use the virtual-time simulator instead.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.config import PipelineConfig
from repro.core.mpdt import FixedSettingPolicy, SettingPolicy
from repro.detection.detector import SimulatedYOLOv3
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.runtime.buffer import FrameBuffer
from repro.runtime.simulator import (
    SOURCE_DETECTOR,
    SOURCE_TRACKER,
    FrameResult,
    ResultBoard,
)
from repro.tracking.tracker import ObjectTracker
from repro.video.dataset import VideoClip
from repro.vision.pyramid_cache import clip_fingerprint


@dataclass(frozen=True, slots=True)
class DetectionSnapshot:
    """One detector result, published to the tracker as an immutable unit.

    ``frame`` and ``detections`` always belong together: the tracker must
    never seed from frame *i+1* paired with frame *i*'s boxes, which is
    exactly what a field-by-field read of a shared dict allowed.
    """

    frame: int
    detections: tuple


class DetectionHandoff:
    """Lock-guarded detector → tracker handoff (and velocity back-channel).

    The detector swaps in a whole :class:`DetectionSnapshot` atomically;
    the tracker reads the whole snapshot atomically.  The tracker's
    measured content-change velocity travels the reverse direction through
    the same lock, so the detector's policy input can never interleave
    with a concurrent publish.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshot: DetectionSnapshot | None = None
        self._measured_velocity: float | None = None

    def publish(self, frame: int, detections) -> float | None:
        """Swap in a new snapshot; returns the latest measured velocity."""
        snapshot = DetectionSnapshot(frame=frame, detections=tuple(detections))
        with self._lock:
            self._snapshot = snapshot
            return self._measured_velocity

    def snapshot(self) -> DetectionSnapshot | None:
        with self._lock:
            return self._snapshot

    def report_velocity(self, velocity: float) -> None:
        with self._lock:
            self._measured_velocity = velocity


@dataclass
class LiveRunStats:
    """Counters the live executor reports after a run."""

    detections: int = 0
    tracked_frames: int = 0
    cancelled_tracking_tasks: int = 0
    switches: int = 0
    dropped_frames: int = 0
    profile_usage: dict[str, int] = field(default_factory=dict)


class LiveExecutor:
    """Runs a clip through the real threaded MPDT pipeline.

    Not used by the benchmark harness (results depend on OS scheduling);
    exists to demonstrate — and test — that the paper's concurrency
    structure (shared buffer + lock + events) is sound.
    """

    def __init__(
        self,
        policy: SettingPolicy | None = None,
        config: PipelineConfig | None = None,
        time_scale: float = 0.2,
        buffer_capacity: int = 64,
        obs: Telemetry | None = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.policy = policy or FixedSettingPolicy(512)
        self.config = config or PipelineConfig()
        self.time_scale = time_scale
        self.buffer_capacity = buffer_capacity
        self.obs = obs or NULL_TELEMETRY

    def run(self, clip: VideoClip) -> tuple[list[FrameResult], LiveRunStats]:
        cfg = self.config
        obs = self.obs
        stats = LiveRunStats()
        buffer = FrameBuffer(capacity=self.buffer_capacity, obs=obs)
        board = ResultBoard(clip.num_frames)
        board_lock = threading.Lock()
        start = time.monotonic()

        detector = SimulatedYOLOv3(
            self.policy.initial(),
            seed=cfg.detector_seed,
            frame_width=clip.config.frame_width,
            frame_height=clip.config.frame_height,
        )

        # Shared detector->tracker handoff, guarded by a lock + event (the
        # paper's "event" communication between threads).
        handoff = DetectionHandoff()
        detection_ready = threading.Event()
        camera_done = threading.Event()
        detector_done = threading.Event()
        fingerprint = clip_fingerprint(clip)

        def now() -> float:
            return (time.monotonic() - start) / self.time_scale

        def camera_thread() -> None:
            interval = clip.config.frame_interval * self.time_scale
            for index in range(clip.num_frames):
                target = start + index * interval
                delay = target - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                buffer.push(index, clip.frame(index))

        def detector_thread() -> None:
            velocity: float | None = None
            last_detected = -1
            while True:
                fetched = buffer.fetch_newest(timeout=2.0)
                if fetched is None:
                    break
                index, _ = fetched
                if index <= last_detected:
                    # No newer frame yet: either the video ended, or the
                    # detector outpaced the camera and must wait.
                    if camera_done.is_set():
                        break
                    time.sleep(clip.config.frame_interval * self.time_scale)
                    continue
                last_detected = index
                setting = self.policy.next_setting(velocity, detector.profile.name)
                if setting != detector.profile.name:
                    stats.switches += 1
                    obs.counter("live.switches").inc()
                detector.set_profile(setting)
                with obs.span("live.detect", frame=index, setting=setting):
                    result = detector.detect(clip.annotation(index))
                    time.sleep(result.latency * self.time_scale)
                obs.histogram(
                    "live.detect_latency", setting=result.profile_name
                ).observe(result.latency)
                with board_lock:
                    board.post(
                        FrameResult(index, result.detections, SOURCE_DETECTOR, now())
                    )
                stats.detections += 1
                obs.counter("live.detections").inc()
                stats.profile_usage[result.profile_name] = (
                    stats.profile_usage.get(result.profile_name, 0) + 1
                )
                velocity = handoff.publish(index, result.detections)
                detection_ready.set()
                if camera_done.is_set() and buffer.newest_index() == index:
                    break

        def tracker_thread() -> None:
            latency = cfg.latency
            while not detector_done.is_set():
                if not detection_ready.wait(timeout=2.0):
                    continue
                detection_ready.clear()
                snapshot = handoff.snapshot()
                if snapshot is None:
                    continue
                seed_frame = snapshot.frame
                detections = snapshot.detections
                tracker = ObjectTracker(
                    clip.frame,
                    clip.config.frame_width,
                    clip.config.frame_height,
                    cfg.tracker,
                    seed=cfg.detector_seed * 1_000_003 + seed_frame,
                    fingerprint=fingerprint,
                )
                with obs.span("live.seed_features", frame=seed_frame):
                    tracker.initialize(seed_frame, detections)
                    time.sleep(latency.feature_extraction * self.time_scale)
                position = seed_frame
                velocities = []
                while not detection_ready.is_set() and not detector_done.is_set():
                    newest = buffer.newest_index()
                    if newest is None or newest <= position:
                        time.sleep(0.2 * clip.config.frame_interval * self.time_scale)
                        if camera_done.is_set() and (
                            newest is None or newest <= position
                        ):
                            break
                        continue
                    # Track every other frame (the steady-state selection
                    # fraction at Table II costs); held frames fill later.
                    position = min(position + 2, newest)
                    with obs.span("live.track_step", frame=position):
                        step = tracker.track_to(position)
                        time.sleep(
                            latency.per_frame_cost(tracker.num_objects)
                            * self.time_scale
                        )
                    with board_lock:
                        board.post(
                            FrameResult(
                                position, step.detections, SOURCE_TRACKER, now()
                            )
                        )
                    stats.tracked_frames += 1
                    obs.counter("live.tracked_frames").inc()
                    if step.velocity is not None:
                        velocities.append(step.velocity)
                if detection_ready.is_set():
                    # Cancelled by a fresh detection (paper's rule): the
                    # remaining backlog frames will display held results.
                    stats.cancelled_tracking_tasks += 1
                    obs.counter("live.cancelled_tracking_tasks").inc()
                if velocities:
                    handoff.report_velocity(float(sum(velocities) / len(velocities)))

        # Worker exceptions must neither vanish nor leave the other threads
        # blocked on an event that will now never be set (a dead camera
        # thread used to hang the run until the join watchdog).  Each wrapper
        # records the failure and then signals its completion events exactly
        # as a clean exit would, so the remaining threads wind down.
        failures: list[tuple[str, BaseException]] = []
        failures_lock = threading.Lock()

        def supervised(name, target, completion_events) -> None:
            try:
                target()
            except BaseException as exc:
                with failures_lock:
                    failures.append((name, exc))
            finally:
                for event in completion_events:
                    event.set()

        threads = [
            threading.Thread(
                target=supervised,
                args=("camera", camera_thread, (camera_done,)),
                name="camera",
            ),
            threading.Thread(
                target=supervised,
                args=("detector", detector_thread, (detector_done, detection_ready)),
                name="detector",
            ),
            threading.Thread(
                target=supervised, args=("tracker", tracker_thread, ()), name="tracker"
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            if thread.is_alive():  # pragma: no cover - watchdog
                raise RuntimeError(f"{thread.name} thread failed to finish")
        if failures:
            # Re-raise the first worker failure in the caller's thread.
            # (add_note would name the thread, but it needs Python 3.11.)
            _, exc = failures[0]
            raise exc

        stats.dropped_frames = buffer.dropped
        return board.finalize(), stats
