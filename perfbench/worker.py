"""One workload in one fresh interpreter; run by perfbench/run.py.

    python3 perfbench/worker.py <request.json> <result.json>

The request names the workload, seed, run length, trace flag, library source
directory and the wall-clock time at which run.py started this process, so
that set-up time covers interpreter start, imports and input building.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

request = json.loads(Path(sys.argv[1]).read_text())
src = Path(request["src"]).resolve()
sys.path.insert(0, str(src))

import numpy as np  # noqa: E402

import varifold_lab  # noqa: E402

if not Path(varifold_lab.__file__).resolve().is_relative_to(src):
    raise SystemExit(f"varifold_lab was imported from {varifold_lab.__file__}, not {src}")

from speed import KERNEL_REF_S, reference_kernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


CLI_WORKLOADS = ("cli-cold", "cli-measurements")


def make_workload(name):
    if name in CLI_WORKLOADS:
        from cli_cold import ColdCli, MeasuredCli

        return {w.name: w for w in (ColdCli, MeasuredCli)}[name](Path.cwd(), src)
    return WORKLOADS[name]()


def one_pass(workload, cases, tracer, outcome, stop=None, backwards=False):
    """Run the cases once, or until perf_counter() reaches `stop`; record
    latencies, their scaled values (see speed.py), failures and output
    digests.  Workloads list their slowest inputs first, and every second
    pass runs backwards: a run's last, partial pass then repeats the cheap
    inputs (which set the median and the tail) before the slow ones (which
    set ops_per_s) in turn."""
    probe, ref_s = getattr(workload, "speed_probe", (reference_kernel, KERNEL_REF_S))
    digests = []
    order = range(len(cases) - 1, -1, -1) if backwards else range(len(cases))
    for i in order:
        case = cases[i]
        if stop is not None and time.perf_counter() >= stop:
            break
        outcome["attempted"] += 1
        if tracer is not None:
            tracer.op = outcome["attempted"]
        before = probe()
        t = time.perf_counter()
        try:
            out = workload.run(case, tracer)
        except Exception as exc:  # a raising operation is a failed operation
            outcome["failed"] += 1
            outcome["errors"].append(f"{case.label}: {type(exc).__name__}: {exc}")
            digests.append(("raised", type(exc).__name__))
            continue
        dt = time.perf_counter() - t
        outcome["latencies"][i].append(dt)
        after = probe()
        outcome["scaled"][i].append(ref_s * dt / (0.5 * (before + after)))
        if tracer is not None:
            with tracer.paused():
                checked = workload.check(case, out)
        else:
            checked = workload.check(case, out)
        digests.append(checked.digest)
        if not checked.ok:
            outcome["failed"] += 1
            outcome["errors"].append(f"{case.label}: {checked.why}")
        for key, value in checked.diag.items():
            outcome["diag"][key] = max(outcome["diag"].get(key, 0.0), value)
    return digests


def new_outcome(cases):
    return {"attempted": 0, "failed": 0, "errors": [], "diag": {},
            "latencies": [[] for _ in cases], "scaled": [[] for _ in cases]}


def scaled_total(outcome) -> float:
    return sum(sum(scaled) for scaled in outcome["scaled"])


def traced_run(workload, cases, setup_extra, result):
    """One untraced and one traced pass over the same inputs; the traced
    outputs must equal the untraced ones, and the time ratio is the overhead."""
    from tracer import Tracer, layer_metrics, merge

    plain = new_outcome(cases)
    plain_digests = one_pass(workload, cases, None, plain)
    traced = new_outcome(cases)
    tracer = Tracer()
    tracer.attach()
    try:
        traced_digests = one_pass(workload, cases, tracer, traced)
    finally:
        tracer.detach()
    extra = dict(setup_extra)
    if request["workload"] in CLI_WORKLOADS:
        summary = merge(workload.summaries)
        extra["cli.import_s"] = statistics.median(
            s["counters"]["cli.import_s"] for s in workload.summaries)
        for case, lat in zip(cases, plain["latencies"]):
            if lat:
                extra[f"cli.{case.label}.wall_ms"] = 1000.0 * statistics.median(lat)
    else:
        summary = tracer.summary()
        spans_file = Path(".perfbench", "traces",
                          f"{request['workload']}-seed{request['seed']}.jsonl.gz")
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_file)
        result["spans_file"] = str(spans_file)
    result["layers"] = layer_metrics(summary, extra)
    result["cli_wall_ms"] = {k: v for k, v in extra.items() if k.endswith(".wall_ms")}
    result["traced_equal"] = plain_digests == traced_digests
    result["overhead_frac"] = scaled_total(traced) / scaled_total(plain) - 1.0
    result["n_spans"] = summary["n_spans"]
    result["missing_targets"] = summary["missing"]
    if plain["failed"] > traced["failed"]:
        traced.update(failed=plain["failed"], errors=plain["errors"])
    traced["diag"] = plain["diag"]
    return traced


def main():
    workload = make_workload(request["workload"])
    cases, setup_extra = workload.build(np.random.default_rng(request["seed"]))
    setup_s = time.time() - request["t0"]
    result = {"setup_s": setup_s, "mix": workload.mix, "n_inputs": len(cases),
              "labels": [c.label for c in cases]}
    if request.get("setup_only"):
        return result
    if not request["trace"]:
        # the first pass always completes, so every input has a latency
        stop = time.perf_counter() + request["seconds"]
        outcome = new_outcome(cases)
        one_pass(workload, cases, None, outcome)
        passes = 1
        while time.perf_counter() < stop:
            one_pass(workload, cases, None, outcome, stop, backwards=passes % 2 == 1)
            passes += 1
        result["passes"] = passes
    else:
        outcome = traced_run(workload, cases, setup_extra, result)
    who = (resource.RUSAGE_CHILDREN if request["workload"] in CLI_WORKLOADS
           else resource.RUSAGE_SELF)
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result.update(outcome)
    try:
        import varifold_lab.cli as cli

        result["cli_workers"] = cli.worker_count()
    except (ImportError, AttributeError):
        result["cli_workers"] = None
    return result


if __name__ == "__main__":
    Path(sys.argv[2]).write_text(json.dumps(main()))
