"""One command for the whole benchmark: every workload, untraced and traced.

Usage::

    python3 perfbench/report.py [--workloads mcmc,mle] [--seed 1]
        [--seconds N] [--out PATH]

Runs ``run.py`` once with ``--trace 0`` and once with ``--trace 1`` per
workload, one process at a time, prints every metric by name with its unit
and sample count, and writes the end-to-end and per-layer rows of each
workload side by side to ``--out`` (default ``.perfbench_work/report.json``).
``--workloads`` defaults to the workloads of ``BENCHMARK.json`` (add
``loglik,validate`` for the held-out ones) and ``--seconds`` to its
``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_work" / "report.json")
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            detail = args.out.parent / f".detail-{workload}-{trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--detail", str(detail)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            res = json.loads(detail.read_text(encoding="utf-8"))
            detail.unlink()
            entry[key] = res["rows"]
            entry[f"{key}_checks"] = {k: res[k] for k in ("correct", "attempted", "failed", "failures")}
            print(f"== {workload} ({key}): attempted={res['attempted']} failed={res['failed']}")
            for row in res["rows"]:
                print(f"   {row['name']:40s} {row['value']:>16.6g} {row['unit']:8s} n={row['n']}")
        report["workloads"][workload] = entry
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
