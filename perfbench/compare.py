"""Compare two versions of the library on the benchmark's end-to-end metrics.

    python3 perfbench/compare.py --base HEAD~1 --head HEAD --seed 9001
    python3 perfbench/compare.py --base ../parent --head . --workload tomo-roundtrip

Run from the repository root.  --base and --head are git revisions (their
`src/` is exported under .perfbench/trees/) or directories holding
`src/varifold_lab`.  The same benchmark code runs both sides: for each
workload, --pairs alternating pairs (base first in even pairs, head first in
odd ones), pair i on seed --seed + i; pass a seed not used while writing the
change to confirm a claim.  Bounds and directions come from BENCHMARK.json.

Verdict per workload and metric:
  better      head wins at least 9 in 10 pairs (ties count for neither) and
              the medians differ by more than the base's quartile spread
  worse       head's median is worse than base's by more than the bound
  unresolved  a side's quartile spread exceeds the bound, unless every head
              run beats every base run
  unchanged   otherwise
A gain does not count when head fails more operations than base.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def library_src(spec: str) -> Path:
    """src directory of a checkout, or of a git revision exported for the run."""
    path = Path(spec)
    for candidate in (path / "src", path):
        if (candidate / "varifold_lab" / "__init__.py").is_file():
            return candidate.resolve()
    sha = subprocess.run(["git", "rev-parse", "--verify", spec + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    tree = ROOT / ".perfbench" / "trees" / sha
    if not (tree / "src" / "varifold_lab" / "__init__.py").is_file():
        archive = subprocess.run(["git", "archive", sha, "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
    return tree / "src"


def run_once(workload: str, seed: int, seconds: int, src: Path) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                           "--src", str(src)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, base: list[float], head: list[float], base_failed: int,
            head_failed: int) -> dict:
    lower = metric["better"] == "lower"
    sign = 1.0 if lower else -1.0
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    worse_by = sign * (hm - bm) / bm if bm else 0.0
    spread = max((b3 - b1) / bm if bm else 0.0, (h3 - h1) / hm if hm else 0.0)
    every_better = all(sign * (b - h) > 0 for b in base for h in head)
    if wins >= 0.9 * len(base) and abs(hm - bm) > (b3 - b1) and worse_by < 0:
        call = "better" if head_failed <= base_failed else "better, void: more failures"
    elif spread > metric["bound"] and not every_better:
        call = "unresolved"
    elif worse_by > metric["bound"]:
        call = "worse"
    else:
        call = "unchanged"
    return {"base": [b1, bm, b3], "head": [h1, hm, h3], "worse_by": worse_by,
            "wins": wins, "pairs": len(base), "spread": spread, "verdict": call}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--workload", action="append",
                        help="workload to compare (repeatable; default: all in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=9001)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("at least 10 pairs are needed for the 9-in-10 rule")
    sides = {"base": library_src(args.base), "head": library_src(args.head)}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    rows = []
    for workload in workloads:
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(workload, args.seed + i, spec["run_seconds"],
                                           sides[side]))
                print(f"{workload} pair {i + 1}/{args.pairs} {side} done", file=sys.stderr)
        failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            row = verdict(metric, values["base"], values["head"], failed["base"], failed["head"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "bound": metric["bound"], "failed": failed, **row})
    print(f"{'workload':<20} {'metric':<12} {'unit':<5} {'base median [q1, q3]':<32} "
          f"{'head median [q1, q3]':<32} {'worse by':>8} {'wins':>6}  verdict")
    for r in rows:
        b, h = r["base"], r["head"]
        print(f"{r['workload']:<20} {r['metric']:<12} {r['unit']:<5} "
              f"{f'{b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]':<32} "
              f"{f'{h[1]:.4g} [{h[0]:.4g}, {h[2]:.4g}]':<32} "
              f"{100 * r['worse_by']:>7.1f}% {r['wins']:>2}/{r['pairs']:<3}  {r['verdict']}")
    out = ROOT / ".perfbench" / "compare" / f"{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"base": args.base, "head": args.head, "seed": args.seed,
                               "pairs": args.pairs, "rows": rows}, indent=1) + "\n")
    print(f"written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
