"""MPDT: the Mobile Parallel Detection and Tracking pipeline (paper §IV-B).

Timing model (virtual time, deterministic):

- At ``t_i`` the detector delivers the result for frame ``d_{i-1}`` and
  immediately fetches the newest buffered frame ``d_i`` to detect next.
- During ``[t_i, t_{i+1})`` — while the GPU detects ``d_i`` — the tracker
  (CPU) seeds itself from the ``d_{i-1}`` result (good-feature extraction)
  and tracks the selected subset of frames ``d_{i-1}+1 .. d_i-1``.
- A tracking task that would finish after the detector delivers is
  cancelled (paper: the tracker "cancels its tracking tasks after finishing
  the current task"), and the affected frames hold the previous result.
- At the end of each cycle the setting policy may switch the detector's
  input size using the cycle's measured content-change velocity (Eq. 3);
  with a :class:`FixedSettingPolicy` this is the paper's "MPDT-YOLOv3-N"
  baseline, with the adaptive policy it is AdaVP.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.config import PipelineConfig
from repro.detection.detector import SimulatedYOLOv3
from repro.detection.profiles import get_profile
from repro.metrics.energy import ActivityLog
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.runtime.simulator import (
    SOURCE_DETECTOR,
    SOURCE_TRACKER,
    CycleRecord,
    FrameResult,
    PipelineRun,
    ResultBoard,
)
from repro.tracking.frame_selection import TrackingFrameSelector, select_spread_indices
from repro.tracking.motion import MotionVelocityEstimator
from repro.tracking.mve import MVETracker
from repro.tracking.tracker import TIER_MVE, ObjectTracker
from repro.video.dataset import VideoClip
from repro.video.source import CameraSource
from repro.vision.pyramid_cache import clip_fingerprint


def _model_family(profile_name: str) -> str:
    """Which weight file a profile needs: ``"tiny"`` or ``"full"``.

    Switching input sizes within one family is free; crossing the boundary
    costs a model reload (paper §IV-D3).
    """
    return "tiny" if "tiny" in profile_name else "full"


class SettingPolicy(Protocol):
    """Chooses the detector input size for the next cycle.

    Implementations must be pure functions of their arguments — the
    pipeline may evaluate ``next_setting`` more than once per cycle (once
    to act, once to record the decision).
    """

    def initial(self) -> str:
        """Setting for the very first detection."""
        ...

    def next_setting(self, velocity: float | None, current: str) -> str:
        """Setting for the next cycle, given the cycle's Eq. 3 velocity."""
        ...


class FixedSettingPolicy:
    """Always use the same setting — the paper's fixed-MPDT baselines."""

    def __init__(self, setting: str | int) -> None:
        self.setting = get_profile(setting).name

    def initial(self) -> str:
        return self.setting

    def next_setting(self, velocity: float | None, current: str) -> str:
        return self.setting


class MPDTPipeline:
    """Runs the parallel detection+tracking pipeline over one clip."""

    def __init__(
        self,
        policy: SettingPolicy,
        config: PipelineConfig | None = None,
        method_name: str | None = None,
        obs: Telemetry | None = None,
    ) -> None:
        self.policy = policy
        self.config = config or PipelineConfig()
        self.method_name = method_name or "mpdt"
        self.obs = obs or NULL_TELEMETRY

    def run(self, clip: VideoClip, collect_velocity_samples: bool = False) -> PipelineRun:
        """Simulate the pipeline over ``clip`` and return its run record.

        With ``collect_velocity_samples`` the run also carries per-step
        ``(frame_index, velocity)`` pairs, which the adaptation trainer
        needs for chunk-level statistics.
        """
        cfg = self.config
        obs = self.obs
        source = CameraSource(clip)
        width = clip.config.frame_width
        height = clip.config.frame_height
        detector = SimulatedYOLOv3(
            self.policy.initial(), seed=cfg.detector_seed,
            frame_width=width, frame_height=height,
        )
        board = ResultBoard(clip.num_frames)
        activity = ActivityLog()
        fingerprint = clip_fingerprint(clip)
        cycles: list[CycleRecord] = []
        velocity_samples: list[tuple[int, float]] = []
        if cfg.fixed_tracking_fraction is not None:
            selector = TrackingFrameSelector(
                initial_fraction=cfg.fixed_tracking_fraction, frozen=True
            )
        else:
            selector = TrackingFrameSelector(
                initial_fraction=cfg.initial_tracking_fraction(clip.fps)
            )

        # Bootstrap: detect frame 0; no tracker can run during the first
        # detection because there is no prior result to propagate.
        prev_frame = 0
        prev_detection = detector.detect(clip.annotation(prev_frame))
        t = prev_detection.latency
        activity.add_gpu(prev_detection.profile_name, prev_detection.latency)
        activity.add_cpu("detect_assist", prev_detection.latency)
        board.post(
            FrameResult(prev_frame, prev_detection.detections, SOURCE_DETECTOR, t)
        )
        activity.add_cpu("overlay", cfg.latency.overlay)
        cycles.append(
            CycleRecord(
                index=0,
                profile_name=prev_detection.profile_name,
                detect_frame=prev_frame,
                detect_start=0.0,
                detect_end=t,
                buffered_frames=0,
                planned_tracked=0,
                tracked=0,
                velocity=None,
                next_profile=detector.profile.name,
            )
        )
        obs.record_span(
            "mpdt.detect", 0.0, t,
            cycle=0, frame=prev_frame, setting=prev_detection.profile_name,
        )
        obs.counter("mpdt.cycles").inc()
        obs.histogram(
            "mpdt.cycle_latency", setting=prev_detection.profile_name
        ).observe(prev_detection.latency)
        velocity: float | None = None

        while True:
            previous_setting = detector.profile.name
            next_setting = self.policy.next_setting(velocity, previous_setting)
            detector.set_profile(next_setting)
            reload_cost = 0.0
            if _model_family(next_setting) != _model_family(previous_setting):
                # Crossing the full/tiny boundary means loading new weights
                # (paper §IV-D3's reason for not pre-loading both models).
                reload_cost = cfg.model_reload_latency

            next_frame = source.newest_frame_at(t + reload_cost)
            detect_start = t + reload_cost
            if next_frame <= prev_frame:
                if prev_frame >= clip.num_frames - 1:
                    break
                # Rare: pipeline is faster than capture; wait for a frame.
                next_frame = prev_frame + 1
                detect_start = max(t + reload_cost, source.capture_time(next_frame))

            # Reload and switch telemetry both live *after* the end-of-clip
            # break: a reload (or switch) decided after the final frame
            # never runs a cycle, so it must not be recorded or charged.
            if reload_cost > 0.0:
                obs.record_span(
                    "mpdt.model_reload", t, t + reload_cost,
                    from_setting=previous_setting, to_setting=next_setting,
                )
                obs.counter("mpdt.model_reloads").inc()
            if next_setting != previous_setting:
                # Counted here, not at set_profile: a switch decided after
                # the last frame never runs a cycle and is not a switch.
                obs.counter("mpdt.switches").inc()
            detection = detector.detect(clip.annotation(next_frame))
            detect_end = detect_start + detection.latency
            activity.add_gpu(detection.profile_name, detection.latency)
            activity.add_cpu("detect_assist", detection.latency)

            # --- tracker runs on the CPU during [t, detect_end) ---------------
            if cfg.tracker_tier == TIER_MVE:
                tracker = MVETracker(
                    clip.frame, width, height, cfg.mve_tracker,
                    fingerprint=fingerprint,
                )
            else:
                tracker = ObjectTracker(
                    clip.frame, width, height, cfg.tracker,
                    seed=cfg.detector_seed * 1_000_003 + prev_frame,
                    fingerprint=fingerprint,
                )
            estimator = MotionVelocityEstimator()
            tracker_time = t
            buffered = next_frame - prev_frame - 1
            planned = selector.plan(buffered)
            tracked = 0
            obs.histogram(
                "mpdt.buffered_frames", bounds=(0, 1, 2, 3, 5, 8, 13, 21, 34)
            ).observe(buffered)
            if planned > 0:
                tracker.initialize(prev_frame, prev_detection.detections)
                # MVE seeds from the boxes alone (seed_cost 0.0): no span,
                # no charge.  The LK path below is numerically unchanged.
                seed_cost = cfg.latency.seed_cost(cfg.tracker_tier)
                if seed_cost > 0.0:
                    obs.record_span(
                        "mpdt.seed_features",
                        tracker_time,
                        tracker_time + seed_cost,
                        frame=prev_frame,
                    )
                    tracker_time += seed_cost
                    activity.add_cpu("feature_extraction", seed_cost)
                for index in select_spread_indices(
                    prev_frame + 1, next_frame, planned
                ):
                    if cfg.tracker_tier == TIER_MVE:
                        # Charged from the measured block count the step is
                        # about to match, not an object-count proxy.
                        tracking_cost = cfg.latency.mve_track_latency(
                            tracker.planned_blocks()
                        )
                    else:
                        tracking_cost = cfg.latency.track_latency(
                            tracker.num_objects
                        )
                    step_cost = tracking_cost + cfg.latency.overlay
                    if tracker_time + step_cost > detect_end:
                        # Cancelled: the detector is about to deliver.
                        obs.counter("mpdt.cancelled_steps").inc()
                        break
                    step = tracker.track_to(index)
                    obs.record_span(
                        "mpdt.track_step", tracker_time, tracker_time + step_cost,
                        frame=index, objects=tracker.num_objects,
                    )
                    obs.counter("mpdt.tracked_frames").inc()
                    tracker_time += step_cost
                    activity.add_cpu("tracking", tracking_cost)
                    activity.add_cpu("overlay", cfg.latency.overlay)
                    board.post(
                        FrameResult(index, step.detections, SOURCE_TRACKER, tracker_time)
                    )
                    if step.velocity is not None:
                        estimator.add_sample(step.velocity)
                        if collect_velocity_samples:
                            velocity_samples.append((index, step.velocity))
                    tracked += 1
            selector.record_cycle(tracked, buffered)
            velocity = estimator.cycle_velocity()

            # --- detection result delivered --------------------------------------
            t = detect_end
            board.post(
                FrameResult(next_frame, detection.detections, SOURCE_DETECTOR, t)
            )
            activity.add_cpu("overlay", cfg.latency.overlay)
            cycles.append(
                CycleRecord(
                    index=len(cycles),
                    profile_name=detection.profile_name,
                    detect_frame=next_frame,
                    detect_start=detect_start,
                    detect_end=detect_end,
                    buffered_frames=buffered,
                    planned_tracked=planned,
                    tracked=tracked,
                    velocity=velocity,
                    next_profile=self.policy.next_setting(
                        velocity, detection.profile_name
                    ),
                )
            )
            obs.record_span(
                "mpdt.detect", detect_start, detect_end,
                cycle=len(cycles) - 1, frame=next_frame,
                setting=detection.profile_name, tracked=tracked,
            )
            obs.counter("mpdt.cycles").inc()
            obs.histogram(
                "mpdt.cycle_latency", setting=detection.profile_name
            ).observe(detection.latency)
            prev_frame = next_frame
            prev_detection = detection

        activity.duration = max(t, source.duration)
        return PipelineRun(
            method=self.method_name,
            clip_name=clip.name,
            num_frames=clip.num_frames,
            fps=clip.fps,
            results=board.finalize(),
            cycles=cycles,
            activity=activity,
            velocity_samples=velocity_samples,
        )
