"""Record the outputs every later run is checked against (reference.json).

    python3 perfbench/record_reference.py

Runs each workload once per parameter variant with the package under src/,
applies the oracles, and writes the outputs.  Re-record only at a commit
whose numbers are the accepted baseline: a change that claims to keep the
results must pass against the numbers recorded before it.
"""

from __future__ import annotations

import json
import os
import sys

from run import PINNED_THREADS, ROOT


def main() -> int:
    os.environ.update(PINNED_THREADS)  # before numpy loads its BLAS
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from worker import REFERENCE, import_package

    import_package(ROOT)
    out_dir = ROOT / ".bench_build" / "perfbench" / "record"
    recorded = {}
    for name, workload in wl.WORKLOADS.items():
        recorded[name] = {}
        for v in range(wl.VARIANTS):
            inputs = workload.setup(v, out_dir)
            raw = workload.run(inputs)
            bad = {op: r for op, r in wl.check_pass(workload, inputs, raw, None, None).items() if r}
            if bad:
                print(f"{name} variant {v} fails its oracles: {bad}", file=sys.stderr)
                return 1
            recorded[name][str(v)] = wl.to_json(workload.collect(inputs, raw))
            print(f"recorded {name} variant {v} {workload.params(v)}", file=sys.stderr)
    doc = {"rel_tol": wl.REL_TOL, "variants": wl.VARIANTS, "workloads": recorded}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
