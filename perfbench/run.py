"""Run the ckdvlab benchmark: one workload per run, each in fresh processes.

    python3 perfbench/run.py --workload theorem1 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Run it from anywhere; it measures the package under src/ next to this
directory.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass.  A table goes to
stderr, one JSON record per run is appended to ``--results`` (with the
Python, numpy and scipy versions, nproc and the seed), and the last line of
stdout is the JSON result.  The exit status is 1 when any operation failed
its checks, 2 when the package or a worker could not be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("theorem1", "ckdv-residual", "soliton")
SETUP_SAMPLES = 3  # set-up is timed in this many fresh processes per run
RUN_TIMEOUT_S = 170.0  # a run ends within this, its workers killed if need be

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "fraction")]

# one thread for every BLAS/OpenMP runtime numpy or scipy may load
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not run (as opposed to the program failing a check)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(args, out_dir: Path, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return seconds from launch to ready, and its result.

    The worker is killed when the run's deadline (a perf_counter value)
    passes before it has ended.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                            cwd=ROOT)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("@ready") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("@result "):
                result = json.loads(line[len("@result "):])
    finally:
        proc.wait()
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None or (result is None and not setup_only):
        raise BenchError(f"worker for {args.workload} exited with {proc.returncode}")
    return ready, result


def run_one(args) -> dict:
    """One benchmark run of one workload; returns the record it appends."""
    build = ROOT / ".bench_build" / "perfbench"
    out_dir = build / f"out-{args.workload}-{os.getpid()}"
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(launch(args, out_dir, True, deadline)[0])
    ready, res = launch(args, out_dir, False, deadline)
    setups.append(ready)

    if args.trace:
        metrics = res["metrics"]
    else:
        # times are scaled to the machine speed at which the worker's
        # calibration job takes its reference time; the mean, not the median,
        # of the passes, because the speed also switches every few seconds
        # and the median of a few passes jumps between the two states
        scale = res["time_scale"]
        values = {
            "wall_s": statistics.fmean(res["walls"]) * scale,
            "setup_s": statistics.median(setups) * scale,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": res["params"], "walls": res["walls"],
        "setups": setups, "cals": res.get("cals"), "time_scale": res.get("time_scale"),
        "attempted": res["attempted"], "failed": res["failed"],
        "fail_frac": res["failed"] / res["attempted"], "metrics": metrics,
        "env": {**res["env"], "nproc": os.cpu_count()},
    }
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with results.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def print_table(record: dict):
    print(f"{record['workload']} seed={record['seed']} params={record['params']} "
          f"passes={len(record['walls'])} attempted={record['attempted']} "
          f"failed={record['failed']} fail_frac={record['fail_frac']:g}", file=sys.stderr)
    if record["time_scale"] is not None:
        print(f"  unscaled: wall {statistics.fmean(record['walls']):.6g} s, setup "
              f"{statistics.median(record['setups']):.6g} s, time scale "
              f"{record['time_scale']:.6g}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(ROOT / ".bench_build" / "perfbench"
                                             / "results.jsonl"))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ckdvlab" / "__init__.py").is_file():
        print(f"error: no ckdvlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_one(argparse.Namespace(**{**vars(args), "workload": name})))
            print_table(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
