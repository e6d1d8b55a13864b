"""One workload process: set up, warm up, run the timed closed loop, report.

Started by run.py in a fresh interpreter with the checkout's `src` on
PYTHONPATH. It prints `READY` once the package is imported, the inputs are
generated and the untimed warm-up op has run, then (unless --probe) runs
the loop and prints one `RESULT <json>` line.

With --trace 1 the loop runs traced for half the time; the same ops are
then replayed untraced, so the tracing overhead and the op outcomes of both
passes can be compared.

Before each op the loop times the fixed reference computation of
hostspeed.py, untimed as far as the op is concerned. Each op's `scaled_ns`
is its wall time scaled by its round's reference median, which takes out
the changes of the host's own speed; the end-to-end timings use it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter, perf_counter_ns

import hostspeed
import workloads

MIN_OPS = 100  # so that at least 10 samples lie beyond the 90th percentile


class Context:
    """Per-process state the workloads share: the package, numpy, the seed,
    a scratch directory for input files, and caches the checks use."""

    def __init__(self, rf, np, seed: int, workdir: str):
        self.rf = rf
        self.np = np
        self.seed = seed
        self.workdir = workdir


class Record:
    __slots__ = ("cls", "sub", "ns", "scaled_ns", "ok", "known", "dev", "note", "out_bytes")

    def __init__(self, op, ns, verdict, known):
        self.cls, self.ns, self.scaled_ns, self.known = op.cls, ns, ns, known
        self.ok, self.dev, self.note, self.out_bytes = verdict.ok, verdict.dev, verdict.note, verdict.out_bytes
        self.sub = op.params["argv"][0] if "argv" in op.params else None  # cli subcommand


def run_op(wl, ctx, op, tracer=None) -> Record:
    if tracer is not None:
        tracer.on = True
    t0 = perf_counter_ns()
    try:
        out, err = wl.execute(ctx, op), None
    except Exception as exc:  # an op that raises is a failed op, and the loop goes on
        out, err = None, exc
    ns = perf_counter_ns() - t0
    if tracer is not None:
        tracer.on = False
    if err is not None:
        verdict = workloads.Verdict(False, None, f"raised {type(err).__name__}: {err}")
    else:
        verdict = wl.check(ctx, op, out)
    known = op.cls in wl.known_defects
    if not verdict.ok and not known:
        print(f"op {op.cls} {json.dumps(op.params)} failed: {verdict.note}", file=sys.stderr)
        if err is not None:
            traceback.print_exception(err, file=sys.stderr)
    return Record(op, ns, verdict, known)


def run_loop(wl, ctx, seed: int, seconds: float, tracer=None, rounds=None) -> list:
    """Whole rounds until `seconds` have passed and MIN_OPS ops ran, or
    exactly `rounds` rounds when given."""
    records: list = []
    start = perf_counter()
    k = 0
    while True:
        batch, refs = [], []
        for op in wl.round_ops(seed, k):
            refs.append(hostspeed.reference())
            batch.append(run_op(wl, ctx, op, tracer))
        scale = hostspeed.factor(refs)
        for r in batch:
            r.scaled_ns = r.ns * scale
        records += batch
        k += 1
        if rounds is not None:
            if k >= rounds:
                break
        elif perf_counter() - start >= seconds and len(records) >= MIN_OPS:
            break
    return records


def summarize(records: list) -> dict:
    ms = [r.scaled_ns / 1e6 for r in records]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    failed = [r for r in records if not r.ok]
    devs = [r.dev for r in records if r.dev is not None]
    return {
        "attempted": len(records),
        "failed_known": sum(1 for r in failed if r.known),
        "failed_other": sum(1 for r in failed if not r.known),
        "failures": sorted({f"{r.cls}: {r.note}" for r in failed}),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": deciles[8],
        "beyond_p90": sum(1 for v in ms if v > deciles[8]),
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "wall_ms_p50": statistics.median(r.ns / 1e6 for r in records),
        "host_scale": sum(r.scaled_ns for r in records) / sum(r.ns for r in records),
        "max_dev": max(devs) if devs else None,
        "dev_samples": len(devs),
        "class_ms": {
            c: statistics.median(r.scaled_ns / 1e6 for r in records if r.cls == c) for c in sorted({r.cls for r in records})
        },
    }


def layer_metrics(tracer, records: list) -> dict:
    from tracer import LAYERS

    counts, self_ns = tracer.totals()
    n = len(records)
    wall_ns = sum(r.ns for r in records)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / n
        out[f"{layer}.share"] = self_ns[layer] / wall_ns
    out["oracle.calls"] = counts["oracle.calls"] / n
    out["oracle.metric_points"] = counts["oracle.metric_points"] / n
    out["oracle.points_per_call"] = counts["oracle.metric_points"] / max(1, counts["oracle.calls"])
    out["oracle.chart_ms"] = self_ns["oracle.chart"] / 1e6 / n
    out["oracle.errors"] = counts["oracle.errors"] / n
    out["exprs.eval_calls"] = counts["exprs.evaluate"] / n
    out["exprs.grid_points"] = counts["exprs.grid_points"] / n
    out["exprs.diff_calls"] = counts["exprs.diff"] / n
    out["exprs.parse_calls"] = counts["exprs.parse"] / n
    out["warped.closed_form_calls"] = counts["warped.ricci_warped"] / n
    out["warped.pd_checks"] = counts["warped.check_positive_definite"] / n
    out["warped.verify_rows"] = counts["warped.verify_rows"] / n
    out["variation.calls"] = sum(v for k, v in counts.items() if k.startswith("variation.")) / n
    out["positivity.minp_calls"] = counts["positivity.min_p"] / n
    out["positivity.grid_points"] = counts["positivity.grid_points"] / n
    out["bundlecalc.plans"] = counts["bundlecalc.plans"] / n
    out["bundlecalc.trace_steps"] = counts["bundlecalc.trace_steps"] / n
    verify_ops = [r for r in records if r.cls == "warped-verify"]
    verify_wall = sum(r.ns for r in verify_ops)
    out["cli.verify_parallelism"] = counts["cli.worker_verify_ns"] / verify_wall if verify_wall else 0.0
    out["cli.out_bytes"] = sum(r.out_bytes for r in records) / n
    out["trace.module_share"] = sum(self_ns[layer] for layer in LAYERS) / wall_ns
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit right after the warm-up op")
    ap.add_argument("--workdir", required=True, help="directory for generated input files")
    args = ap.parse_args(argv)

    import numpy as np

    import ricciforge
    import ricciforge.cli  # noqa: F401  (the package __init__ leaves the cli out)

    wl = workloads.WORKLOADS[args.workload]
    # Relative to the checkout root (the cwd), so no report depends on where
    # the checkout lives.
    workdir = os.path.relpath(tempfile.mkdtemp(prefix="inputs-", dir=args.workdir))
    try:
        ctx = Context(ricciforge, np, args.seed, workdir)
        wl.setup(ctx)
        wl.round_ops(args.seed, 0)  # input generation is part of set-up
        warm = run_op(wl, ctx, wl.warmup_op())
        if not warm.ok:
            print(f"warm-up op failed: {warm.note}", file=sys.stderr)
            return 1
        print("READY", flush=True)
        if args.probe:
            return 0
        result = {"package": os.path.dirname(ricciforge.__file__), "numpy": np.__version__}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(ricciforge)
            tracer.install()
            try:
                traced = run_loop(wl, ctx, args.seed, args.seconds / 2, tracer=tracer)
            finally:
                tracer.uninstall()
            rounds = len(traced) // wl.round_size()
            plain = run_loop(wl, ctx, args.seed, 0, rounds=rounds)
            result["layers"] = layer_metrics(tracer, traced)
            result["layers"]["trace.overhead"] = sum(r.ns for r in traced) / sum(r.ns for r in plain) - 1.0
            result["subcommand_ms"] = _subcommand_p50(plain)
            result["same_outcomes"] = [(r.cls, r.ok) for r in traced] == [(r.cls, r.ok) for r in plain]
            result["summary"] = summarize(plain)
        else:
            result["summary"] = summarize(run_loop(wl, ctx, args.seed, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _subcommand_p50(records: list) -> dict:
    """Median untraced latency of each cli subcommand, in ms."""
    by_sub: dict = {}
    for r in records:
        if r.sub is not None:
            by_sub.setdefault(r.sub, []).append(r.ns / 1e6)
    return {sub: statistics.median(v) for sub, v in by_sub.items()}


if __name__ == "__main__":
    sys.exit(main())
