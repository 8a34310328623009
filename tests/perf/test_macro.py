"""Macro-bench document: generation, schema validation, CLI smoke."""

from __future__ import annotations

import copy
import json

import pytest

from repro.perf import (
    format_macro_table,
    run_macro_benchmark,
    validate_macro_doc,
    write_bench_json,
)
from repro.perf.macro import MACRO_BENCH_NAME, MACRO_SUITE_NAME


@pytest.fixture(scope="module")
def macro_doc():
    return run_macro_benchmark(jobs=2, repeats=1, quick=True)


class TestRunMacroBenchmark:
    def test_document_validates(self, macro_doc):
        assert validate_macro_doc(macro_doc) == [MACRO_BENCH_NAME]

    def test_document_shape(self, macro_doc):
        assert macro_doc["suite"] == MACRO_SUITE_NAME
        assert macro_doc["quick"] is True
        assert isinstance(macro_doc["host"]["cpu_count"], int)
        bench = macro_doc["benches"][0]
        assert bench["jobs"] == 2
        assert bench["workload"]["shards"] == len(bench["workload"]["methods"]) * len(
            bench["workload"]["clips"]
        )
        # The honesty field: a jobs=2 pool cannot deliver more parallelism
        # than the host has cores.
        assert bench["effective_parallelism"] == min(
            2, macro_doc["host"]["cpu_count"]
        )
        assert bench["results_identical"] is True
        assert bench["failures"] == 0
        assert bench["sequential_best_s"] > 0
        assert bench["parallel_best_s"] > 0

    def test_frame_store_counters(self, macro_doc):
        """With a budget that fits the suite, the warm-up pass renders
        each frame at most once per process: a store miss happens only on
        a frame's first render, so misses are bounded by unique frames
        (per worker in the parallel arm), no matter how many methods
        rescan each clip.  Pipelines skip frames, so accessed frames can
        be fewer than clip length."""
        bench = macro_doc["benches"][0]
        store = bench["frame_store"]
        assert store["budget_mb"] == 128
        unique_frames = sum(bench["workload"]["frames_per_clip"])
        seq = store["sequential"]
        assert 0 < seq["misses"] <= unique_frames
        assert seq["evicted_bytes"] == 0
        par = store["parallel"]
        assert 0 < par["misses"] <= unique_frames * bench["jobs"]
        assert par["evicted_bytes"] == 0
        # Render-once fleet-wide: the exact gate validate_macro_doc applies.
        assert par["misses"] == seq["misses"]

    def test_arms_record_their_store_mode(self, macro_doc):
        from repro.video.framestore import shared_store_available

        store = macro_doc["benches"][0]["frame_store"]
        assert store["sequential"]["store_mode"] == "private"
        expected = "shared" if shared_store_available() else "private"
        assert store["parallel"]["store_mode"] == expected
        assert store["sequential"]["lease_waits"] >= 0
        assert store["parallel"]["lease_waits"] >= 0

    def test_disabled_store_records_zero_counters(self):
        doc = run_macro_benchmark(jobs=2, repeats=1, quick=True, frame_store_mb=0)
        store = doc["benches"][0]["frame_store"]
        assert store["budget_mb"] == 0
        zeros = {
            "store_mode": "none",
            "hits": 0,
            "misses": 0,
            "evicted_bytes": 0,
            "lease_waits": 0,
        }
        assert store["sequential"] == zeros
        assert store["parallel"] == zeros

    def test_artifact_store_counters(self, macro_doc):
        """The derived-artifact store block: the enabled warm-up builds
        each pyramid at most once per arm, and later arms are served from
        the store (hits > 0 even sequentially, because the grid's method
        arms revisit the same clips)."""
        bench = macro_doc["benches"][0]
        store = bench["artifact_store"]
        assert store["budget_mb"] == 384
        assert store["disabled_sequential_best_s"] > 0
        assert store["enabled_speedup"] > 0
        for arm in ("sequential", "parallel"):
            entry = store[arm]
            assert entry["misses"] > 0
            assert entry["hits"] >= 0
            assert entry["evicted_bytes"] == 0
        # Build-once fleet-wide: the exact gate validate_macro_doc applies.
        assert store["parallel"]["misses"] == store["sequential"]["misses"]

    def test_artifact_store_arms_record_their_mode(self, macro_doc):
        from repro.video.framestore import shared_store_available

        store = macro_doc["benches"][0]["artifact_store"]
        assert store["sequential"]["store_mode"] == "private"
        expected = "shared" if shared_store_available() else "private"
        assert store["parallel"]["store_mode"] == expected

    def test_disabled_artifact_store_records_zero_counters(self):
        doc = run_macro_benchmark(
            jobs=2, repeats=1, quick=True, artifact_store_mb=0
        )
        store = doc["benches"][0]["artifact_store"]
        assert store["budget_mb"] == 0
        for arm in ("sequential", "parallel"):
            entry = store[arm]
            assert entry["store_mode"] == "none"
            assert entry["hits"] == 0 and entry["misses"] == 0
            assert entry["evicted_bytes"] == 0

    def test_document_is_json_serialisable(self, macro_doc, tmp_path):
        path = tmp_path / "BENCH_macro.json"
        write_bench_json(macro_doc, str(path))
        reloaded = json.loads(path.read_text(encoding="utf-8"))
        assert validate_macro_doc(reloaded) == [MACRO_BENCH_NAME]

    def test_format_table_mentions_speedup_and_host(self, macro_doc):
        text = format_macro_table(macro_doc)
        assert MACRO_BENCH_NAME in text
        assert "cpu_count" in text

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_macro_benchmark(jobs=1, repeats=1, quick=True)


class TestValidateMacroDoc:
    def test_rejects_missing_top_key(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        del doc["host"]
        with pytest.raises(ValueError, match="missing key 'host'"):
            validate_macro_doc(doc)

    def test_rejects_missing_cpu_count(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        del doc["host"]["cpu_count"]
        with pytest.raises(ValueError, match="cpu_count"):
            validate_macro_doc(doc)

    def test_rejects_non_identical_results(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        doc["benches"][0]["results_identical"] = False
        with pytest.raises(ValueError, match="result-identical"):
            validate_macro_doc(doc)

    def test_rejects_shard_failures(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        doc["benches"][0]["failures"] = 2
        with pytest.raises(ValueError, match="failures"):
            validate_macro_doc(doc)

    def test_rejects_non_positive_timing(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        doc["benches"][0]["parallel_best_s"] = 0.0
        with pytest.raises(ValueError, match="non-positive"):
            validate_macro_doc(doc)

    def test_rejects_missing_effective_parallelism(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        del doc["benches"][0]["effective_parallelism"]
        with pytest.raises(ValueError, match="effective_parallelism"):
            validate_macro_doc(doc)

    def test_min_speedup_gate(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        # Pin a multi-core host: the gate only applies where a pool can win.
        doc["host"]["cpu_count"] = 4
        doc["benches"][0]["speedup"] = 1.2
        with pytest.raises(ValueError, match="below required"):
            validate_macro_doc(doc, min_speedup=1.7)
        validate_macro_doc(doc, min_speedup=1.0)

    def test_min_speedup_gate_skipped_on_single_core(self, macro_doc, capsys):
        """On a 1-vCPU host the gate is waived, not failed — and the
        waiver is logged so CI transcripts show it was skipped."""
        doc = copy.deepcopy(macro_doc)
        doc["host"]["cpu_count"] = 1
        doc["benches"][0]["speedup"] = 0.8
        assert validate_macro_doc(doc, min_speedup=1.7) == [MACRO_BENCH_NAME]
        captured = capsys.readouterr()
        assert "skipping --min-speedup gate" in captured.err
        assert "cpu_count=1" in captured.err

    def test_min_speedup_gate_enforced_on_multi_core(self, macro_doc, capsys):
        doc = copy.deepcopy(macro_doc)
        doc["host"]["cpu_count"] = 2
        doc["benches"][0]["speedup"] = 0.8
        with pytest.raises(ValueError, match="below required"):
            validate_macro_doc(doc, min_speedup=1.7)
        assert "skipping" not in capsys.readouterr().err


def _set_misses(doc: dict, label: str, sequential: int, parallel: int) -> dict:
    store = doc["benches"][0][label]
    store["sequential"]["misses"] = sequential
    store["parallel"]["misses"] = parallel
    return doc


class TestStoreHitRatioGate:
    """The frame store's reuse gate: with nothing evicted, the parallel
    arm must render exactly the frames the sequential arm rendered (equal
    misses) — render-once fleet-wide.  Always on, and exact."""

    def test_parity_passes(self, macro_doc):
        doc = _set_misses(copy.deepcopy(macro_doc), "frame_store", 164, 164)
        assert validate_macro_doc(doc) == [MACRO_BENCH_NAME]

    def test_one_extra_parallel_miss_fails(self, macro_doc):
        doc = _set_misses(copy.deepcopy(macro_doc), "frame_store", 164, 165)
        with pytest.raises(ValueError, match="frame_store misses 165 != sequential"):
            validate_macro_doc(doc)

    def test_private_store_regression_fails(self, macro_doc):
        """The motivating bug: per-worker private stores make each worker
        render every frame it touches, so parallel misses exceed the
        sequential arm's."""
        doc = _set_misses(copy.deepcopy(macro_doc), "frame_store", 340, 1012)
        with pytest.raises(ValueError, match="did not produce each entry exactly once"):
            validate_macro_doc(doc)

    def test_gate_is_one_sided(self, macro_doc):
        # Only misses are compared: worker-local renderer caches are
        # colder than the parent's, so the parallel arm legitimately hits
        # the store more often.
        doc = copy.deepcopy(macro_doc)
        store = doc["benches"][0]["frame_store"]
        store["sequential"]["hits"] = 100
        store["parallel"]["hits"] = 400
        assert validate_macro_doc(doc) == [MACRO_BENCH_NAME]

    def test_evicting_document_fails(self, macro_doc):
        # A budget that evicted cannot certify reuse, even when the
        # misses happen to agree.
        doc = copy.deepcopy(macro_doc)
        doc["benches"][0]["frame_store"]["parallel"]["evicted_bytes"] = 230400
        with pytest.raises(ValueError, match="too small to certify reuse"):
            validate_macro_doc(doc)

    def test_budget_without_misses_fails(self, macro_doc):
        doc = _set_misses(copy.deepcopy(macro_doc), "frame_store", 0, 0)
        with pytest.raises(ValueError, match="nothing was measured"):
            validate_macro_doc(doc)

    def test_no_waiver_on_single_core(self, macro_doc):
        # Unlike --min-speedup, cache reuse needs no second core: the
        # gate holds everywhere.
        doc = _set_misses(copy.deepcopy(macro_doc), "frame_store", 340, 341)
        doc["host"]["cpu_count"] = 1
        with pytest.raises(ValueError, match="misses 341 != sequential"):
            validate_macro_doc(doc)

    def test_unknown_store_mode_rejected(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        doc["benches"][0]["frame_store"]["parallel"]["store_mode"] = "global"
        with pytest.raises(ValueError, match="unknown store_mode"):
            validate_macro_doc(doc)

    def test_legacy_arms_without_store_mode_still_validate(self, macro_doc):
        """Documents written before the cross-process store lack
        store_mode/lease_waits; the schema and the gate must keep
        accepting them."""
        doc = copy.deepcopy(macro_doc)
        for arm in ("sequential", "parallel"):
            entry = doc["benches"][0]["frame_store"][arm]
            entry.pop("store_mode", None)
            entry.pop("lease_waits", None)
        assert validate_macro_doc(doc) == [MACRO_BENCH_NAME]

    def test_committed_document_validates(self):
        """The committed BENCH_macro.json (340 == 340 frame-store misses,
        nothing evicted) passes the exact gate."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "BENCH_macro.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert MACRO_BENCH_NAME in validate_macro_doc(doc)


class TestArtifactHitRatioGate:
    """The same exact reuse gate one layer up: with nothing evicted, the
    parallel arm must build exactly the pyramids the sequential arm built
    — build-once fleet-wide."""

    def test_parity_passes(self, macro_doc):
        doc = _set_misses(copy.deepcopy(macro_doc), "artifact_store", 164, 164)
        assert validate_macro_doc(doc) == [MACRO_BENCH_NAME]

    def test_one_extra_parallel_miss_fails(self, macro_doc):
        doc = _set_misses(copy.deepcopy(macro_doc), "artifact_store", 164, 165)
        with pytest.raises(ValueError, match="artifact_store misses 165 != sequential"):
            validate_macro_doc(doc)

    def test_cold_parallel_store_fails(self, macro_doc):
        """The motivating shape: per-worker private artifact stores make
        each worker rebuild pyramids another worker already built."""
        doc = _set_misses(copy.deepcopy(macro_doc), "artifact_store", 164, 301)
        with pytest.raises(ValueError, match="artifact_store misses 301 != sequential"):
            validate_macro_doc(doc)

    def test_gate_is_one_sided(self, macro_doc):
        # Only misses are compared; hits may differ between the arms.
        doc = copy.deepcopy(macro_doc)
        store = doc["benches"][0]["artifact_store"]
        store["sequential"]["hits"] = 50
        store["parallel"]["hits"] = 200
        assert validate_macro_doc(doc) == [MACRO_BENCH_NAME]

    def test_evicting_document_fails(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        doc["benches"][0]["artifact_store"]["sequential"]["evicted_bytes"] = 1
        with pytest.raises(ValueError, match="artifact_store evicted .* too small"):
            validate_macro_doc(doc)

    def test_legacy_doc_without_block_still_validates(self, macro_doc):
        """Documents written before the artifact store lack the block;
        the schema must keep accepting them."""
        doc = copy.deepcopy(macro_doc)
        del doc["benches"][0]["artifact_store"]
        assert validate_macro_doc(doc) == [MACRO_BENCH_NAME]

    def test_unknown_artifact_store_mode_rejected(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        doc["benches"][0]["artifact_store"]["parallel"]["store_mode"] = "global"
        with pytest.raises(ValueError, match="unknown store_mode"):
            validate_macro_doc(doc)


class TestMergeSweepBench:
    def _serve_stub(self):
        return {
            "name": "serve_fleet_ladder",
            "kind": "serve",
            "workload": {},
            "slo_realtime_s": 2.0,
            "rungs": [
                {
                    "streams": 16,
                    "realtime_wait_p99_s": 0.9,
                    "served_per_sim_second": 50.0,
                    "wall_s": 1.0,
                    "digest": "d",
                }
            ],
            "sustained_streams": 16,
            "results_identical": True,
            "failures": 0,
        }

    def test_merge_into_none_starts_fresh(self, macro_doc):
        from repro.perf.macro import merge_sweep_bench

        bench = copy.deepcopy(macro_doc["benches"][0])
        doc = merge_sweep_bench(None, bench, quick=True)
        assert validate_macro_doc(doc) == [MACRO_BENCH_NAME]

    def test_merge_preserves_serve_bench(self, macro_doc):
        """Regenerating the sweep bench must not drop the serve ladder
        that shares BENCH_macro.json."""
        from repro.perf.macro import merge_sweep_bench

        existing = copy.deepcopy(macro_doc)
        existing["benches"].append(self._serve_stub())
        bench = copy.deepcopy(macro_doc["benches"][0])
        bench["speedup"] = 9.9
        doc = merge_sweep_bench(existing, bench, quick=True)
        names = validate_macro_doc(doc)
        assert set(names) == {MACRO_BENCH_NAME, "serve_fleet_ladder"}
        sweep = next(b for b in doc["benches"] if b["name"] == MACRO_BENCH_NAME)
        assert sweep["speedup"] == 9.9
        assert len(doc["benches"]) == 2

    def test_merge_replaces_same_name_only_once(self, macro_doc):
        from repro.perf.macro import merge_sweep_bench

        bench = copy.deepcopy(macro_doc["benches"][0])
        doc = merge_sweep_bench(copy.deepcopy(macro_doc), bench, quick=True)
        doc = merge_sweep_bench(doc, bench, quick=True)
        assert [b["name"] for b in doc["benches"]] == [MACRO_BENCH_NAME]

    def test_merge_into_corrupt_doc_starts_fresh(self, macro_doc):
        from repro.perf.macro import merge_sweep_bench

        bench = copy.deepcopy(macro_doc["benches"][0])
        doc = merge_sweep_bench({"benches": "not-a-list"}, bench, quick=False)
        assert doc["quick"] is False
        assert validate_macro_doc(doc) == [MACRO_BENCH_NAME]
