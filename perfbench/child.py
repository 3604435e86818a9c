"""One measuring process of a benchmark run.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
It imports the package and writes the inputs of its first part (its
set-up), then runs the workload's chain of CLI stages
(``motionseg.cli.main`` in-process) on part after part, writing each
part's inputs before its first chain. The first child of a run has no
part count: it runs parts 0, 1, 2, ... and stops at the chain boundary
nearest its budget of reference seconds (see refclock.py). Every later
child runs those same parts once more, each starting at another part, so
every part is run by every process and its outputs must hash alike in
all of them. Every chain's outputs are checked and hashed; a traced
child runs every chain under a :class:`layertrace.Tracer`.

Usage: child.py <config.json> <start time as time.time()>
"""

import hashlib
import io
import itertools
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr
from pathlib import Path

import refclock

# The first child stops near this many times its budget in seconds, even
# if it has spent less in reference seconds.
BUDGET_CAP = 1.2


def main(config_path, started):
    cfg = json.loads(Path(config_path).read_text())
    import numpy
    import scipy
    from motionseg.cli import main as cli_main

    import layertrace
    import workloads

    work = Path(cfg["work"])
    manifests = {}

    def inputs(part, write=False):
        """The part's manifest. Every child writes its first part, as its
        set-up; a later part is written by the first child that runs it
        and read from there by the others: they would write the same."""
        if part not in manifests:
            root = Path(cfg["data"]) / f"part{part}"
            done = root / "written"
            if write or not done.is_file():
                manifests[part] = workloads.write_inputs(
                    cfg["workload"], root, cfg["seed"], part, cfg["tiny"])
                done.write_text(str(manifests[part]))
            else:
                manifests[part] = Path(done.read_text())
        return manifests[part]

    parts = cfg["parts"]
    order = (itertools.count() if parts is None else
             ((cfg["offset"] + i) % parts for i in range(parts)))
    part = next(order)
    inputs(part, write=True)
    setup_s = time.time() - started
    setup_scale = refclock.REF_S / refclock.reference()

    reps, spans = [], []
    begin = time.perf_counter()
    spent = 0.0     # reference seconds of the chains run so far
    while True:
        tracer = None
        if cfg["trace"]:
            tracer = layertrace.Tracer(f"child{cfg['child']}-part{part}")
        chain = workloads.stages(cfg["workload"], inputs(part),
                                 work / f"rep{len(reps)}", cfg["tiny"])
        rep = run_chain(cli_main, chain, tracer)
        rep["part"] = part
        if tracer is not None:
            rep["layers"] = layertrace.layer_metrics(tracer)
            rep["absent"] = tracer.absent
            spans.extend(tracer.spans)
        reps.append(rep)
        if len(reps) == 1:
            # peak memory of set-up and one chain: later chains add a few
            # MB of heap growth, and the chain count varies from run to run
            first_maxrss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        # The budget is in reference seconds, so how many parts a run
        # holds does not depend on how busy the machine was; the cap in
        # seconds bounds the run's length when it was very busy.
        chain_s = sum(rep["stages"][n] * rep["scale"][n]
                      for n in rep["stages"])
        spent += chain_s
        if rep["failed"] or parts is None and (
                spent + chain_s / 2 >= cfg["budget"]
                or time.perf_counter() - begin + rep["wall_s"] / 2
                >= BUDGET_CAP * cfg["budget"]):
            break
        part = next(order, None)
        if part is None:
            break

    if spans:
        spans_path = Path(cfg["spans"])
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(spans))
    result = {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "maxrss_kb": first_maxrss_kb,
        "final_maxrss_kb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "reps": reps,
    }
    Path(cfg["result"]).write_text(json.dumps(result))


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_stage(cli_main, stage, tracer):
    """Run one CLI stage; returns (exit code, wall s, cpu s)."""
    err = io.StringIO()
    span = tracer.span(f"cli.{stage.name}") if tracer else nullcontext()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        with redirect_stderr(err), span:
            code = cli_main(list(stage.argv))
    except SystemExit as e:          # argparse rejected the arguments
        code = e.code if isinstance(e.code, int) else 2
    except Exception:                # a stage crash is a failed attempt
        traceback.print_exc()
        code = 1
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    if code != 0:
        print(f"stage {stage.name} exited {code}: {err.getvalue().strip()}",
              file=sys.stderr)
    return code, wall, cpu


def run_chain(cli_main, chain, tracer):
    """Run every stage in order, then check the outputs. Each stage's
    ``scale`` turns its seconds into reference seconds: REF_S over the
    mean of the reference times taken just before and just after it."""
    rep = {"traced": tracer is not None, "stages": {}, "stage_cpu": {},
           "scale": {}, "wall_s": 0.0, "attempted": 0, "failed": 0}
    if tracer is not None:
        tracer.install()
    try:
        before = refclock.reference()
        for stage in chain:
            code, wall, cpu = run_stage(cli_main, stage, tracer)
            after = refclock.reference()
            rep["attempted"] += 1
            rep["stages"][stage.name] = wall
            rep["stage_cpu"][stage.name] = cpu
            rep["scale"][stage.name] = 2 * refclock.REF_S / (before + after)
            rep["wall_s"] += wall
            before = after
            if code != 0:
                rep["failed"] += 1
                return rep
    finally:
        if tracer is not None:
            tracer.uninstall()
    for ok in check_outputs(chain, rep):
        rep["attempted"] += 1
        rep["failed"] += not ok
    return rep


def _expected_frames(manifest_path):
    """(frames, shots) a stage processes, from the manifest JSON: the
    sampled frames of each shot, else its kept range, else all frames."""
    doc = json.loads(Path(manifest_path).read_text())
    frames = shots = 0
    for video in doc["videos"]:
        for shot in video["shots"]:
            shots += 1
            if shot.get("sampled_indices") is not None:
                frames += len(shot["sampled_indices"])
            elif shot.get("kept_range") is not None:
                start, stop = shot["kept_range"]
                frames += stop - start
            else:
                frames += len(shot["frames"])
    return frames, shots


def _arg(stage, flag):
    return stage.argv[stage.argv.index(flag) + 1]


def _report(stage, key, lo, hi, frames):
    """The report's ``key`` if it parses, covers ``frames`` frames and lies
    in [lo, hi]; otherwise None."""
    try:
        doc = json.loads((stage.out / "report.json").read_text())
    except (OSError, ValueError):
        return None
    value = doc.get(key)
    if (doc.get("frames") != frames or not isinstance(value, (int, float))
            or not lo <= value <= hi):
        return None
    return float(value)


def check_outputs(chain, rep):
    """Yield one pass/fail per output check; fill rep's outputs and digest."""
    by_name = {s.name: s for s in chain}
    digest = hashlib.sha256()
    frames, shots = _expected_frames(_arg(by_name["infer"], "--manifest"))
    rep["frames"] = frames

    labels = by_name["infer"].out
    maps = sorted(p for p in labels.rglob("*.pgm"))
    yield len(maps) == frames
    for p in maps:
        digest.update(str(p.relative_to(labels)).encode() + p.read_bytes())

    rep["mean_iou"] = _report(by_name["eval-iou"], "mean_iou", 0.0, 1.0, frames)
    yield rep["mean_iou"] is not None

    if "train-toy" in by_name:
        stage = by_name["train-toy"]
        model = stage.out / "model.mtm"
        blob = model.read_bytes() if model.is_file() else b""
        yield blob.startswith(b"MTM1 ")
        digest.update(blob)
        rep["train_steps"] = int(_arg(stage, "--epochs")) * shots

    if "coloc" in by_name:
        boxes = by_name["coloc"].out / "boxes.csv"
        text = boxes.read_text() if boxes.is_file() else ""
        yield len(text.splitlines()) == frames + 1
        digest.update(text.encode())
        rep["corloc"] = _report(by_name["eval-corloc"], "corloc", 0.0, 100.0,
                                frames)
        yield rep["corloc"] is not None

    rep["digest"] = digest.hexdigest()


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
