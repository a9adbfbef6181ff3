#!/usr/bin/env python3
"""Record the outputs the benchmark checks its runs against.

    python3 perfbench/make_references.py [--workload NAME] [--index I ...]

For each of the ``workloads.POOL`` input sets of each workload, this runs
the workload's own unit code once and stores the result in
references.json: the per-step losses of one training chunk, the label maps
of the inference images (every 8th row and column), and the mIoU of one
evaluation pass. Existing entries for other workloads or indices are kept.
Rerun it only for a change that is meant to alter outputs beyond the
tolerances stated in workloads.py.
"""
import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def main(argv=None) -> int:
    stats.limit_blas_threads()  # before numpy is imported
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), action="append")
    parser.add_argument("--index", type=int, action="append",
                        help=f"input set, 0..{workloads.POOL - 1} (default: all)")
    args = parser.parse_args(argv)
    names = args.workload or sorted(workloads.WORKLOADS)
    indices = args.index or list(range(workloads.POOL))
    refs = workloads.load_references() if workloads.REFERENCES.exists() else {}
    workdir = HERE / "out" / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            entries = refs.setdefault(name, [None] * workloads.POOL)
            for i in indices:
                workload = workloads.WORKLOADS[name]()
                workload.prepare(i, workdir)
                entries[i] = workload.reference()
                print(f"{name} input set {i}: recorded", flush=True)
                with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
                    json.dump(refs, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
