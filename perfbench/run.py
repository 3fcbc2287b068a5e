"""varifold-lab benchmark: closed-loop workloads against the public API.

    python3 perfbench/run.py --workload tomo-roundtrip --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  Each workload runs in its own fresh
interpreter with one caller and no added threads; the library is imported
from --src (default: src).  With --trace 0 the report gives the end-to-end
metrics; with --trace 1 one untraced and one traced pass run over the same
inputs and the report gives the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A run record (commit,
machine, versions, metrics) is written under .perfbench/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402

WORKLOAD_NAMES = ("tomo-roundtrip", "stationarity-ladder", "surgery-battery",
                  "tangent-catalog", "cli-cold", "cli-measurements")
CLI_SUBCOMMANDS = ("check-stationary", "project", "surgery", "blowup", "reconstruct",
                   "reconstruct-measurements", "fixture")
END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
DIAGNOSTICS = (("tomography.max_pos_err", "1"), ("tomography.max_mass_err", "1"),
               ("variation.max_residual", "1"))
SETUP_RUNS = 3          # set-up-only processes per run; setup_s is their median
DEADLINE_S = 170.0      # every run ends within this many seconds
TAIL_BEYOND = 10


def layer_names() -> list[tuple[str, str]]:
    """Per-layer metrics every traced run reports (0 for a layer the workload
    does not reach), plus diagnostics and the tracing overhead."""
    return (list(LAYER_METRICS) + [(f"cli.{c}.wall_ms", "ms") for c in CLI_SUBCOMMANDS]
            + list(DIAGNOSTICS) + [("trace.overhead_frac", "ratio"), ("trace.spans", "count")])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten values
    beyond it; the maximum when there are too few values."""
    v = sorted(values)
    if len(v) <= TAIL_BEYOND:
        return v[-1], 100.0
    k = len(v) - TAIL_BEYOND - 1
    return v[k], 100.0 * (k + 1) / len(v)


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def machine_record(root: Path, src: Path, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((src / "varifold_lab").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "python": platform.python_version(),
        **versions,
        "VARIFOLD_LAB_THREADS": os.environ.get("VARIFOLD_LAB_THREADS", "unset"),
    }


def spawn(request: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its result."""
    tmp = Path(".perfbench", "tmp")
    tmp.mkdir(parents=True, exist_ok=True)
    req, res = tmp / f"request-{os.getpid()}.json", tmp / f"result-{os.getpid()}.json"
    res.unlink(missing_ok=True)
    request = dict(request, t0=time.time())
    req.write_text(json.dumps(request))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(req), str(res)])
    try:
        status = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{request['workload']}: worker did not finish before the deadline")
    if status != 0 or not res.exists():
        raise SystemExit(f"{request['workload']}: worker exited with status {status}")
    return json.loads(res.read_text())


def end_to_end(name: str, out: dict, probes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, with a note on each."""
    per_input = [statistics.median(scaled) for scaled in out["scaled"] if scaled]
    if not per_input:
        raise SystemExit(f"{name}: every operation raised; {out['errors'][:3]}")
    raw = [statistics.median(lat) for lat in out["latencies"] if lat]
    setups = [p["setup_s"] for p in probes]
    tail_s, tail_pct = tail(per_input)
    values = {
        "ops_per_s": len(per_input) / sum(per_input),
        "op_p50_ms": 1000.0 * statistics.median(per_input),
        "op_tail_ms": 1000.0 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    notes = {
        "ops_per_s": f"{sum(map(len, out['latencies']))} operations, {out['passes']} "
                     f"passes (the last may be partial) over {out['n_inputs']} inputs",
        "op_p50_ms": f"median over inputs; unscaled {1000 * statistics.median(raw):.4g} ms",
        "op_tail_ms": (f"p{tail_pct:.1f} over {len(per_input)} inputs, {TAIL_BEYOND} beyond it"
                       if len(per_input) > TAIL_BEYOND else
                       f"maximum: only {len(per_input)} inputs"),
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{t:.3f}" for t in setups),
        "peak_rss_mb": "of the CLI child processes" if name.startswith("cli-")
                       else "of the workload process",
    }
    return {n: {"value": values[n], "unit": u} for n, u in END_TO_END}, notes


def per_layer(name: str, out: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, with notes."""
    layers = dict(out["layers"])
    for key, unit in DIAGNOSTICS:
        layers[key] = {"value": out["diag"].get(key, 0.0), "unit": unit}
    layers["trace.overhead_frac"] = {"value": out["overhead_frac"], "unit": "ratio"}
    layers["trace.spans"] = {"value": out["n_spans"], "unit": "count"}
    for key, value in out["cli_wall_ms"].items():
        layers[key] = {"value": value, "unit": "ms"}
    metrics = {n: layers.get(n, {"value": 0, "unit": u}) for n, u in layer_names()}
    notes = {"trace.overhead_frac": "scaled latency of the traced pass over the untraced one, minus 1",
             "trace.spans": out.get("spans_file", "summarised per CLI process")}
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: int, src: Path,
                 deadline: float) -> dict:
    request = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "src": str(src)}
    if trace:
        out = spawn(request, deadline)
        metrics, notes = per_layer(name, out)
        correct = out["failed"] == 0 and out["traced_equal"]
    else:
        probes = [spawn(dict(request, setup_only=True), deadline) for _ in range(SETUP_RUNS)]
        out = spawn(request, deadline)
        metrics, notes = end_to_end(name, out, probes)
        correct = out["failed"] == 0
    return {"workload": name, "correct": correct, "attempted": out["attempted"],
            "failed": out["failed"], "errors": out["errors"], "metrics": metrics,
            "notes": notes, "traced_equal": out.get("traced_equal"),
            "missing_targets": out.get("missing_targets", []),
            "cli_workers": out["cli_workers"], "mix": out["mix"], "labels": out["labels"],
            "latencies": out["latencies"], "scaled": out["scaled"]}


def print_report(r: dict, seed: int, seconds: float, trace: int) -> None:
    mode = "traced: one untraced and one traced pass" if trace else f"run {seconds:g} s"
    print(f"== {r['workload']}  seed {seed}  {mode}  (closed loop, one caller)")
    print(f"   input mix: {r['mix']}")
    for key, m in r["metrics"].items():
        note = r["notes"].get(key, "")
        print(f"   {key:<44} {m['value']:>14.6g} {m['unit']:<6} {note}")
    frac = r["failed"] / r["attempted"] if r["attempted"] else 0.0
    print(f"   {'failed_frac':<44} {frac:>14.6g} {'ratio':<6} "
          f"{r['failed']} of {r['attempted']} operations failed")
    if trace:
        print(f"   traced outputs equal untraced outputs: {r['traced_equal']}")
        if r["missing_targets"]:
            print(f"   trace targets not found: {', '.join(r['missing_targets'])}")
    for err in r["errors"][:5]:
        print(f"   FAILED {err}")
    if len(r["errors"]) > 5:
        print(f"   ... and {len(r['errors']) - 5} more failures")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default="src",
                        help="directory holding the varifold_lab package to measure")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    src = Path(args.src).resolve()
    if not (src / "varifold_lab" / "__init__.py").is_file():
        print(f"no varifold_lab package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    record = machine_record(root, src, args.seed)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        if args.workload == "all":
            deadline = time.monotonic() + DEADLINE_S
        r = run_workload(name, args.seed, args.seconds, args.trace, src, deadline)
        record["cli_workers"] = r.pop("cli_workers")
        print_report(r, args.seed, args.seconds, args.trace)
        runs = Path(".perfbench", "runs")
        runs.mkdir(parents=True, exist_ok=True)
        (runs / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"record": record, "seconds": args.seconds, **r}, indent=1) + "\n")
        results.append(r)
    print(f"   record: {json.dumps(record)}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
