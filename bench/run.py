"""ricciforge benchmark: one seeded, closed-loop workload per invocation.

    python3 bench/run.py --workload verify-hd --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src`, never from an installed copy. With --trace 0 it prints
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics of a traced run. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
repeat every number with its unit and sample count, and the environment.

Set-up time is measured in fresh interpreters: SETUP_SAMPLES of them,
the last of which goes on to run the timed loop. Every timing metric is
scaled to one fixed host speed by the reference computation of
hostspeed.py, timed between the ops, and set-up time by bare interpreters
that import numpy, started between the set-up samples. See README.md for
the workloads, the metrics and what each check compares.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build"  # generated input files; removed by each worker
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 20
LOOP_GRACE_S = 60  # on top of --seconds, for the last round and the report


def _worker_cmd(args, probe: bool) -> list:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(WORKDIR)]
    return cmd + (["--probe"] if probe else [])


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _start(args, probe: bool):
    """Launch a fresh interpreter and wait for its READY line; returns the
    process and the seconds from launch to READY."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        _worker_cmd(args, probe), cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process did not become ready (exit {proc.returncode})")
    return proc, elapsed


def _finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ricciforge" / "__init__.py").is_file():
        print(f"error: no ricciforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import hostspeed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORKDIR.mkdir(exist_ok=True)
    # Byte-compile once, so that no set-up sample pays for compilation.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    setup, startup = [], []  # set-up samples and bare-interpreter references, interleaved
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            startup.append(hostspeed.startup())
            proc, elapsed = _start(args, probe=True)
            _finish(proc, SETUP_TIMEOUT_S)
            setup.append(elapsed)
        startup.append(hostspeed.startup())
    proc, elapsed = _start(args, probe=False)
    setup.append(elapsed)
    out = _finish(proc, args.seconds + LOOP_GRACE_S)
    result = json.loads(out.strip().splitlines()[-1][len("RESULT "):])
    if Path(result["package"]).resolve() != (SRC / "ricciforge").resolve():
        print(f"error: imported ricciforge from {result['package']}", file=sys.stderr)
        return 2
    try:
        WORKDIR.rmdir()
    except OSError:
        pass

    s = result["summary"]
    wl = workloads.WORKLOADS[args.workload]
    print(f"workload {wl.name}: {wl.why}")
    print(f"  {wl.loop}; {wl.round_size()} ops a round in shares {dict(wl.shares)}")
    threads = os.environ.get("RICCI_FORGE_THREADS", "unset")
    print(
        f"env: python {platform.python_version()}, numpy {result['numpy']}, "
        f"nproc {os.cpu_count()}, RICCI_FORGE_THREADS={threads}, seed {args.seed}, seconds {args.seconds:g}"
    )
    fail_ratio = (s["failed_known"] + s["failed_other"]) / s["attempted"]
    print(
        f"ops: {s['attempted']} attempted, {s['failed_known']} failed as pinned known defects, "
        f"{s['failed_other']} failed otherwise; fail_ratio {fail_ratio:.6g}"
    )
    setup_scale = hostspeed.STARTUP_NOMINAL_S / statistics.median(startup) if startup else 1.0
    print(
        f"host speed: op times scaled by {s['host_scale']:.4g} on average, set-up by {setup_scale:.4g}; "
        f"unscaled op p50 {s['wall_ms_p50']:.6g} ms, set-up {statistics.median(setup):.6g} s"
    )
    print("  median ms by op class: " + ", ".join(f"{c} {v:.3g}" for c, v in s["class_ms"].items()))
    for note in s["failures"]:
        print(f"  failure: {note}")

    if args.trace:
        layers = dict(result["layers"])
        wanted = spec["per_layer"]
        for m in wanted:  # cli.<subcommand>.p50_ms; 0 where a workload runs no cli op
            if m["name"].endswith(".p50_ms"):
                layers[m["name"]] = result["subcommand_ms"].get(m["name"][len("cli."):-len(".p50_ms")], 0.0)
        correct = result["same_outcomes"]
        if not correct:
            print("error: op outcomes differ between the traced and the untraced pass", file=sys.stderr)
        print(f"traced ops: {s['attempted']} (per-op means over the traced pass)")
    else:
        layers = {
            "setup_s": statistics.median(setup) * setup_scale,
            "op_ms_p50": s["op_ms_p50"],
            "op_ms_p90": s["op_ms_p90"],
            "ops_per_s": s["ops_per_s"],
            "pass_ratio": 1.0 - fail_ratio,
            "peak_rss_mb": result["peak_rss_mb"],
            "max_dev": s["max_dev"],
        }
        wanted = spec["end_to_end"]
        correct = True
        counts = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "op_ms_p50": f"n={s['attempted']}",
            "op_ms_p90": f"n={s['attempted']}, {s['beyond_p90']} beyond",
            "ops_per_s": f"n={s['attempted']}",
            "pass_ratio": f"n={s['attempted']}",
            "peak_rss_mb": "1 process",
            "max_dev": f"n={s['dev_samples']}",
        }
    correct = correct and s["failed_other"] == 0
    metrics = {}
    for m in wanted:
        value = layers.get(m["name"])
        if value is None:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = "" if args.trace else f"  ({counts[m['name']]})"
        print(f"  {m['name']:<28} {value:<14.6g} {m['unit']}{note}")
    print(
        json.dumps(
            {"correct": bool(correct), "attempted": s["attempted"], "failed": s["failed_other"], "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
