"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from layertrace import PER_LAYER, Tracer  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_metrics_reported():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"] == "higher")
            for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"] == "higher")
            for m in doc["per_layer"]] == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_is_correct_and_complete(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    names = PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [n for n, _, _ in names]
    if trace:
        # the tracer counted what it wraps
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trace.absent"] == 0
        assert m["gmm.fit_calls"] > 0 and m["maxflow.cut_calls"] > 0
        assert m["cli.infer_layer_share"] > 0.9


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "blob_chain", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tracer_restores_every_patched_function():
    import motionseg.coloc
    import motionseg.energy
    import motionseg.gmm
    import motionseg.inference

    before = (motionseg.inference.fit_gmm, motionseg.coloc.fit_gmm,
              motionseg.energy.min_cut)
    tracer = Tracer("t")
    tracer.install()
    try:
        assert motionseg.inference.fit_gmm is not before[0]
        assert motionseg.coloc.fit_gmm is motionseg.inference.fit_gmm
        assert motionseg.energy.min_cut is not before[2]
        gmm = motionseg.gmm.fit_gmm([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6],
                                     [0.2, 0.2, 0.2]], n_components=1)
        assert isinstance(gmm, motionseg.gmm.Gmm)  # history stripped
    finally:
        tracer.uninstall()
    assert (motionseg.inference.fit_gmm, motionseg.coloc.fit_gmm,
            motionseg.energy.min_cut) == before
    assert tracer.counts["gmm.em_iters"] >= 1
    assert [s[1] for s in tracer.spans] == ["gmm.fit"]


def _rep(part, infer, scale, frames=2):
    return {"part": part, "traced": False, "failed": 0, "attempted": 3,
            "stages": {"infer": infer, "eval-iou": 0.1},
            "stage_cpu": {"infer": infer, "eval-iou": 0.1},
            "scale": {"infer": scale, "eval-iou": 1.0},
            "wall_s": infer + 0.1, "frames": frames, "mean_iou": 0.5,
            "digest": f"d{part}"}


def test_each_stage_counts_its_fastest_scaled_run():
    results = [{"setup_s": 1.0, "setup_scale": s, "maxrss_kb": 1024,
                "final_maxrss_kb": 2048, "versions": {},
                "reps": [_rep(0, t, s), _rep(1, 2 * t, s)]}
               for t, s in [(1.0, 1.0), (2.0, 0.5), (1.5, 0.4)]]
    attempted, failed, m, _, _ = run.summarize(results, 0, False)
    assert failed == 0
    # part 0's infer: 1.0, 1.0 and 0.6 reference s; part 1's: 2.0, 2.0, 1.2
    assert m["wall_s"] == pytest.approx((0.6 + 0.1 + 1.2 + 0.1) / 2)
    assert m["infer_frames_per_s"] == pytest.approx(4 / 1.8)
    assert m["setup_s"] == pytest.approx(0.5)


def test_a_digest_that_differs_between_processes_fails_the_run():
    reps = [[_rep(0, 1.0, 1.0)], [_rep(0, 1.0, 1.0)], [_rep(0, 1.0, 1.0)]]
    reps[2][0]["digest"] = "other"
    results = [{"setup_s": 1.0, "setup_scale": 1.0, "maxrss_kb": 1024,
                "final_maxrss_kb": 2048, "versions": {}, "reps": r}
               for r in reps]
    _, failed, _, _, _ = run.summarize(results, 0, False)
    assert failed == 1


def test_reference_clock_reads_a_short_positive_time():
    import refclock
    times = [refclock.reference() for _ in range(3)]
    assert all(0 < t < 1 for t in times)
