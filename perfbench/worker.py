"""One benchmark process: set up a workload, time its passes, check them.

Started by run.py as a fresh interpreter.  It prints ``@ready`` as soon as
the workload's inputs exist, so the launcher can time set-up from process
start, and ends with one ``@result`` line of JSON.

    python3 perfbench/worker.py --root . --workload soliton --seed 3 \
        --seconds 10 --trace 0 --out-dir .bench_build/perfbench/out
"""

from __future__ import annotations

import argparse
import json
import mmap
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads as wl
from tracer import METRICS, Tracer

REFERENCE = Path(__file__).with_name("reference.json")
CALIBRATION_REFERENCE_S = 0.17
CALIBRATION_LARGE = 1_000_000  # elements of each streaming array, 8 MB


def calibration_job() -> float:
    """Seconds taken by a fixed numpy job that does not use ckdvlab.

    On a shared host the machine's speed drifts by tens of percent over
    minutes.  The job mixes small transforms in a Python loop, 4096-point
    transforms and in-place streaming over arrays larger than the L2 cache,
    so its time follows that drift in each regime of the workloads.  The
    streaming arrays live in an anonymous mapping released at the end: they
    leave malloc's state alone and fit under the workloads' own peak memory.
    Untraced runs report times scaled by CALIBRATION_REFERENCE_S over the
    job's mean time in the run.
    """
    start = time.perf_counter()
    a = np.ones(512)
    for _ in range(1500):
        a = a + 1e-9 * np.fft.ifft(np.fft.fft(a)).real
    x = np.cos(np.arange(4096.0))
    for _ in range(150):
        x = np.fft.ifft(np.fft.fft(x)).real
    buf = mmap.mmap(-1, 2 * CALIBRATION_LARGE * 8)
    try:
        y, t = np.frombuffer(buf, dtype=float).reshape(2, CALIBRATION_LARGE)
        y.fill(0.5)
        for _ in range(10):  # y -> sqrt(y^2 + 1) - 0.5 stays near 0.75
            np.multiply(y, y, out=t)
            np.add(t, 1.0, out=t)
            np.sqrt(t, out=t)
            np.subtract(t, 0.5, out=y)
        del y, t
    finally:
        buf.close()
    return time.perf_counter() - start


def import_package(root: Path):
    """Import ckdvlab and make sure it is the copy under root/src."""
    import ckdvlab

    src = (root / "src").resolve()
    if src not in Path(ckdvlab.__file__).resolve().parents:
        raise SystemExit(f"ckdvlab imported from {ckdvlab.__file__}, not from {src}")
    return ckdvlab


def timed_pass(workload, inputs, out_dir: Path, reference) -> tuple[float, dict]:
    """Run one pass; return its wall time and the per-operation failures."""
    shutil.rmtree(out_dir, ignore_errors=True)
    error = raw = None
    start = time.perf_counter()
    try:
        raw = workload.run(inputs)
    except Exception as exc:  # a failed pass is counted, not fatal
        error = repr(exc)
        traceback.print_exc(file=sys.stderr)
    wall = time.perf_counter() - start
    return wall, wl.check_pass(workload, inputs, raw, error, reference)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_package(args.root)
    workload = wl.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.out_dir)
    recorded = json.loads(REFERENCE.read_text())["workloads"][workload.name]
    reference = recorded.get(str(wl.variant(args.seed)), {})
    print("@ready", flush=True)
    if args.setup_only:
        return 0

    walls, failures = [], {}
    result = {}

    def record(wall, checked):
        walls.append(wall)
        for op, reasons in checked.items():
            failures.setdefault(op, []).append(reasons)
        if len(walls) == 1:  # set-up plus one pass, before any calibration job
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        # warm-up pass, a second untraced pass, then the traced pass
        for _ in range(2):
            record(*timed_pass(workload, inputs, args.out_dir, reference))
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, checked = timed_pass(workload, inputs, args.out_dir, reference)
        finally:
            tracer.uninstall()
        record(traced_wall, checked)
        tracer.write_spans(args.out_dir.parent / f"spans-{workload.name}.csv")
        values = tracer.metrics(overhead_s=traced_wall - walls[1])
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in METRICS}
    else:
        # the calibration job runs after every pass
        cals = []
        begin = time.perf_counter()
        while True:
            record(*timed_pass(workload, inputs, args.out_dir, reference))
            cals.append(calibration_job())
            elapsed = time.perf_counter() - begin
            if elapsed + statistics.median(walls) > args.seconds:
                break
        result["cals"] = cals
        result["time_scale"] = CALIBRATION_REFERENCE_S / statistics.fmean(cals)
    shutil.rmtree(args.out_dir, ignore_errors=True)

    import scipy

    failed = [(op, reasons) for op, runs in failures.items() for reasons in runs if reasons]
    for op, reasons in failed[:10]:
        print(f"FAILED {workload.name} {op}: {'; '.join(reasons)}", file=sys.stderr)
    result.update({
        "walls": walls,
        "attempted": sum(len(runs) for runs in failures.values()),
        "failed": len(failed),
        "params": workload.params(args.seed),
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__},
    })
    print("@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
