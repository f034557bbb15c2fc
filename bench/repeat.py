"""Run the benchmark once per seed and summarise every metric.

Run from the repository root:

    python3 bench/repeat.py --workload per-map --seeds 1-10 --seconds 50 --save bench/baseline.json

For each metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  ``--save`` adds
the summary, with the environment of the first run, under the workload's
name in a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a seed or a range such as 1-10")
    parser.add_argument("--seconds", default="50")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--save", help="JSON file to add the summary to")
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    env = None
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed)]
        proc = subprocess.run(cmd + ["--seconds", args.seconds, "--trace", args.trace], capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        env = env or json.loads(lines[0])["environment"]
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)

    summary = {name: {"unit": units[name], **summarise(vals)} for name, vals in values.items()}
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:48s} median {s['median']:.6g} {s['unit']:6s} q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}")
    if args.save:
        path = Path(args.save)
        saved = json.loads(path.read_text()) if path.is_file() else {}
        saved[args.workload] = {"seeds": args.seeds, "seconds": args.seconds, "environment": env, "metrics": summary}
        path.write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
