"""opis benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload train_opis_finetune --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads and metrics are declared in
BENCHMARK.json; perfbench/README.md says what each one measures.  The program
is imported from ./src, with numpy's BLAS pinned to one thread.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).  A full record
with machine information goes to .bench_out/.
"""

from __future__ import annotations

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)  # before numpy is imported anywhere

import argparse
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The checkout lacks the program or the benchmark's declarations."""


def import_program():
    """Import opis from this checkout's src/, never from anywhere else."""
    if not (SRC / "opis" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC / 'opis'}")
    sys.path.insert(0, str(SRC))
    import opis

    if Path(opis.__file__).resolve().parent != SRC / "opis":
        raise SetupError(f"imported opis from {opis.__file__}, not from {SRC}")
    return opis


def declared_metrics(trace: int) -> dict[str, str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pin": BLAS_PIN,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        units = declared_metrics(args.trace)
        import_program()
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2**32  # the program's seeds must be non-negative
    tally = workloads.Tally()
    run = workloads.run_traced if args.trace else workloads.run_end_to_end
    values, notes = run(workload, seed, args.seconds, tally)
    if values.keys() != units.keys():
        print(f"metrics {sorted(values.keys() ^ units.keys())} disagree with BENCHMARK.json", file=sys.stderr)
        return 2

    info = machine_info()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "notes": notes,
    }
    path = workloads.write_record(record, args.workload, args.seed, args.trace)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}; record in {path.relative_to(ROOT)}")
    print("# " + ", ".join(f"{k}={v}" for k, v in info.items()))
    if not args.trace:
        print(f"# train_iter_ms_tail is p{notes['train_iter_ms_tail_percentile']} of "
              f"each iteration's best time over the rounds ({notes['train_iterations']} iterations run); "
              f"measured on {notes['measured_on']}")
    for name in units:
        print(f"{name:45s} {values[name]:>14.6g} {units[name]}")
    print(f"{'fail_ratio':45s} {record['fail_ratio']:>14.6g} ratio ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
