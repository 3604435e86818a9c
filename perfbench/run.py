"""motionseg benchmark: run a workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload blob_chain --seed 1 --seconds 24 --trace 0

Run from the repository root. Each workload runs in CHILDREN fresh child
processes (child.py) with BLAS pinned to one thread; each child imports the
package from ``src/``, writes inputs made from ``--seed`` and runs the
workload's chain of CLI stages over them. The first child runs as many
input parts as fit its share of ``--seconds``; the others run the same
parts again. Each stage of a part is timed by its fastest run.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
``--workload all`` runs every workload and prefixes metric names with the
workload's. See README.md for the metrics and workloads.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from layertrace import PER_LAYER  # noqa: E402

WORKLOADS = ("blob_chain", "large_frames", "multilabel")

# Fresh processes per run: setup_s is their median, every part runs once
# in each, and its output digest must agree across them. In a traced run
# one child traces every chain and the others give the untraced times.
CHILDREN = 3
TRACED_CHILD = 1
CHILD_TIMEOUT_S = 50

# (metric, unit, True if higher is better)
END_TO_END = [
    ("setup_s", "s", False),
    ("wall_s", "s", False),
    ("cpu_s", "s", False),
    ("peak_rss_mb", "MB", False),
    ("infer_frames_per_s", "frames/s", True),
    ("mean_iou", "ratio", True),
]
# Printed for the workloads that run the stage, not part of the JSON result.
EXTRA = [
    ("measured_setup_s", "s", False),
    ("measured_wall_s", "s", False),
    ("final_peak_rss_mb", "MB", False),
    ("coloc_frames_per_s", "frames/s", True),
    ("train_steps_per_s", "steps/s", True),
    ("corloc", "%", True),
    ("failed_frac", "ratio", False),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time of one workload, split over children")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def environment():
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu, "src_lines": src_lines,
            "blas_threads": 1}


def run_children(workload, args, work):
    """Run the children one after another; returns their results and the
    number of children that crashed. Child 0 finds how many parts fit its
    share of the time; every later child runs those parts again, starting
    at another part."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    results, crashed, parts = [], 0, None
    for c in range(CHILDREN):
        if c and parts is None:      # child 0 crashed: nothing to repeat
            crashed += 1
            continue
        cdir = work / f"child{c}"
        cdir.mkdir(parents=True)
        cfg = {"workload": workload, "seed": args.seed, "tiny": args.tiny,
               "trace": bool(args.trace) and c == TRACED_CHILD, "child": c,
               "parts": parts, "offset": c * (parts or 0) // CHILDREN,
               "budget": args.seconds / CHILDREN, "work": str(cdir),
               "data": str(work / "data"),
               "result": str(cdir / "result.json"),
               "spans": str(WORK / "spans"
                            / f"{workload}-seed{args.seed}-child{c}.json")}
        (cdir / "config.json").write_text(json.dumps(cfg))
        started = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"),
                 str(cdir / "config.json"), repr(started)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{workload}: child {c} timed out", file=sys.stderr)
            crashed += 1
            continue
        if proc.returncode != 0 or not (cdir / "result.json").is_file():
            print(f"{workload}: child {c} exited {proc.returncode}:\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            crashed += 1
            continue
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        result = json.loads((cdir / "result.json").read_text())
        results.append(result)
        if c == 0:
            parts = len(result["reps"])
    return results, crashed


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _mean(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def _scaled(key):
    """Reference seconds of a rep's stage, from its seconds under ``key``."""
    return lambda rep, stage: rep[key][stage] * rep["scale"][stage]


def _raw(key):
    return lambda rep, stage: rep[key][stage]


def _best(reps, value, stages=None):
    """Sum over stages of the least ``value`` any of ``reps`` had for the
    stage: each stage's run least disturbed by other load on the machine.
    None when a rep lacks a stage."""
    names = stages or reps[0]["stages"].keys()
    if not all(n in r["stages"] for r in reps for n in names):
        return None
    return sum(min(value(r, n) for r in reps) for n in names)


def summarize(results, crashed, trace):
    """(attempted, failed, metrics, extras, versions) over all children."""
    reps = [r for res in results for r in res["reps"]]
    attempted = CHILDREN + sum(r["attempted"] for r in reps)
    failed = crashed + sum(r["failed"] for r in reps)
    # outputs must repeat byte for byte across processes
    digests = {}
    for r in reps:
        if "digest" in r:
            digests.setdefault(r["part"], []).append(r["digest"])
    for ds in digests.values():
        attempted += len(ds) - 1
        failed += sum(d != ds[0] for d in ds[1:])
    by_part = {}
    for r in reps:
        if not r["failed"]:
            by_part.setdefault(r["part"], []).append(r)
    plain = {p: [r for r in rs if not r["traced"]]
             for p, rs in by_part.items()}
    plain = {p: rs for p, rs in plain.items() if rs}
    traced = {p: [r for r in rs if r["traced"]] for p, rs in by_part.items()}
    traced = {p: rs for p, rs in traced.items() if rs}

    def rate(count, stage):
        """Units of ``count`` over the best time of ``stage``, all parts."""
        done = [(rs[0][count], _best(rs, _scaled("stages"), [stage]))
                for rs in plain.values() if count in rs[0]]
        done = [(n, t) for n, t in done if t]
        return (sum(n for n, _ in done) / sum(t for _, t in done)
                if done else None)

    metrics = {
        "setup_s": _median([res["setup_s"] * res["setup_scale"]
                            for res in results]),
        "wall_s": _mean([_best(rs, _scaled("stages"))
                         for rs in plain.values()]),
        "cpu_s": _mean([_best(rs, _scaled("stage_cpu"))
                        for rs in plain.values()]),
        "peak_rss_mb": _median([res["maxrss_kb"] / 1024 for res in results]),
        "infer_frames_per_s": rate("frames", "infer"),
        "mean_iou": _mean([_median([r.get("mean_iou") for r in rs])
                           for rs in by_part.values()]),
    }
    extras = {
        "coloc_frames_per_s": rate("frames", "coloc"),
        "train_steps_per_s": rate("train_steps", "train-toy"),
        "corloc": _mean([_median([r.get("corloc") for r in rs])
                         for rs in by_part.values()]),
        "failed_frac": failed / attempted,
        "measured_setup_s": _median([res["setup_s"] for res in results]),
        "final_peak_rss_mb": _median([res["final_maxrss_kb"] / 1024
                                      for res in results]),
        "measured_wall_s": _mean([_best(rs, _raw("stages"))
                                  for rs in plain.values()]),
        "parts": len(plain),
        "part_walls": [_best(rs, _scaled("stages"))
                       for _, rs in sorted(plain.items())],
    }
    if trace:
        # traced chain minus the best untraced stages of the same part
        overhead = _mean([
            _best(traced[p], _scaled("stages"))
            - _best(plain[p], _scaled("stages"))
            for p in traced.keys() & plain.keys()])
        metrics = {name: overhead if name == "trace.overhead_s" else
                   _mean([_median([r["layers"][name] for r in rs])
                          for rs in traced.values()])
                   for name, _, _ in PER_LAYER}
        extras["parts"] = len(traced)
        extras["part_walls"] = [_median([r["wall_s"] for r in rs])
                                for _, rs in sorted(traced.items())]
        extras["absent"] = sorted({a for rs in traced.values() for r in rs
                                   for a in r["absent"]})
    versions = results[0]["versions"] if results else {}
    return attempted, failed, metrics, extras, versions


def run_workload(workload, args):
    work = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        results, crashed = run_children(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(results, crashed, args.trace)


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "motionseg" / "cli.py").is_file():
        print(f"no motionseg sources under {SRC}", file=sys.stderr)
        return 2
    units = {n: (u, hi) for n, u, hi in (PER_LAYER if args.trace
                                         else END_TO_END)}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment()
    total_attempted = total_failed = 0
    combined = {}
    for name in names:
        attempted, failed, metrics, extras, versions = run_workload(name, args)
        total_attempted += attempted
        total_failed += failed
        print(f"# {name} seed={args.seed} trace={args.trace} "
              f"{json.dumps({**env, **versions})}")
        for metric, value in metrics.items():
            unit, higher = units[metric]
            print(f"{name} {metric} {_fmt(value)} {unit} "
                  f"({'higher' if higher else 'lower'} is better)")
        for metric, unit, higher in EXTRA:
            if extras[metric] is not None:
                print(f"{name} {metric} {_fmt(extras[metric])} {unit} "
                      f"({'higher' if higher else 'lower'} is better; "
                      f"not in the JSON result)")
        print(f"{name} parts measured: {extras['parts']} "
              f"(wall s: {', '.join(map(_fmt, extras['part_walls']))}); "
              f"attempted {attempted}, failed {failed}")
        if extras.get("absent"):
            print(f"{name} absent boundaries: {', '.join(extras['absent'])}")
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in metrics.items():
            combined[prefix + metric] = (value, units[metric][0])

    correct = total_failed == 0 and all(v is not None
                                        for v, _ in combined.values())
    print(json.dumps({
        "correct": correct, "attempted": total_attempted,
        "failed": total_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in combined.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
