"""Benchmark of the pseudoplanar workbench.

    python3 perfbench/run.py --workload classify_n12 --seed 1 --seconds 36 --trace 0

Workloads: classify_n12, search_n6, scheme_n9, or "all" for the three in
turn.  Every workload process is fresh and single-threaded, and they run one
after another.  The package is imported from src/ of this checkout; nothing
is installed.

--trace 0 measures the end-to-end metrics of BENCHMARK.json, untraced:
set-up time (process start to ready, median of several fresh processes),
items per second, op latency p50/p90 and peak RSS.  --trace 1 runs a fixed
op list twice, plain and traced, and reports the per-layer metrics of
BENCHMARK.json plus the tracing overhead (traced minus plain).  --tiny
shrinks every size, for the self-test.

Every op's output is checked against an oracle; a failed op counts in
"failed" and fail_ratio and does not stop the run.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# one workload, with its set-up probes, must end within this many seconds
TIME_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


def _timeout(signum, frame):
    raise TimeoutError(f"benchmark exceeded {TIME_LIMIT_S} s")


def spawn(cfg: dict) -> tuple[float, dict, dict | None]:
    """Run one worker process: (seconds to READY, READY payload, RESULT payload)."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or not ready.startswith("READY "):
        raise BenchError(f"{cfg['workload']} {cfg['mode']} worker exited with {proc.returncode}")
    result = None
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if cfg["mode"] != "probe" and result is None:
        raise BenchError(f"{cfg['workload']} worker printed no result")
    return setup_s, json.loads(ready[len("READY "):]), result


def environment(seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": revision,
        "seed": seed,
    }


def scaled(result: dict, ref: float) -> list[float]:
    """Op latencies at the reference machine speed (see calibrate.py)."""
    return [t * ref / cal for t, cal in zip(result["latencies"], result["cal"])]


def end_to_end(lat: list[float], items: list[int], setups: list[float],
               peak_rss_kb: int, round_size: int) -> dict:
    rounds = [
        sum(items[i:i + round_size]) / sum(lat[i:i + round_size])
        for i in range(0, len(lat) - round_size + 1, round_size)
    ] or [sum(items) / sum(lat)]
    # "inclusive" interpolates between order statistics instead of clamping
    # to the maximum, which matters for scheme_n9's 8 or so ops per run
    p90 = quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "setup_s": (median(setups), "s", len(setups)),
        "items_per_s": (median(rounds), "items/s", len(rounds)),
        "op_p50_s": (median(lat), "s", len(lat)),
        "op_p90_s": (p90, "s", len(lat)),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB", 1),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, tiny: bool, workdir: Path) -> dict:
    """Metrics of one workload: name -> (value, unit, samples), plus counts."""
    scale = "tiny" if tiny else "full"
    wl = workloads.WORKLOADS[name](scale, workdir)
    base = {"root": str(ROOT), "workload": name, "scale": scale, "seed": seed,
            "workdir": str(workdir), "seconds": seconds, "max_ops": None}
    ref = calibrate.REFERENCE_S[wl.calibration]
    probe = dict(base, mode="probe")
    spawn(probe)  # warms byte-code and file caches; not counted
    setups, readies = [], []
    for _ in range(1 if tiny else SETUP_PROBES):
        setup_s, ready, result = spawn(probe)
        setups.append(setup_s * ref / result["setup_cal"])
        readies.append({k: v * ref / result["setup_cal"] for k, v in ready.items()
                        if k.endswith("tables_s")})

    if not trace:
        setup_s, ready, result = spawn(dict(base, mode="plain"))
        setups.append(setup_s * ref / result["setup_cal"])
        runs = [result]
        metrics = end_to_end(scaled(result, ref), result["items"], setups,
                             result["peak_rss_kb"], wl.round_size)
    else:
        _, _, plain = spawn(dict(base, mode="plain", seconds=seconds / 2, max_ops=wl.trace_ops))
        _, ready, traced = spawn(dict(base, mode="traced", max_ops=len(plain["latencies"])))
        runs = [plain, traced]
        speed = [ref / cal for cal in traced["cal"]]
        metrics = spans.layer_metrics(workdir / "spans.npz", speed, wl.ring_degree)
        for table in ("field.tables_s", "galois_ring.tables_s"):
            metrics[table] = (median(r[table] for r in readies), "s", len(readies))
        ops = len(speed)
        base_s = sum(scaled(plain, ref)[:ops])
        extra = sum(scaled(traced, ref)) - base_s
        metrics["trace.overhead_s"] = (extra / ops, "s/op", ops)
        metrics["trace.overhead_ratio"] = (extra / base_s, "ratio", ops)

    attempted = sum(len(r["ok"]) for r in runs)
    failed = sum(not ok for r in runs for ok in r["ok"])
    speeds = [ref / cal for r in runs for cal in r["cal"]]
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": (failed / attempted, "ratio", attempted),
        "machine_speed": (median(speeds), "x", len(speeds)),
        "metrics": metrics,
        "env": environment(seed, ready["numpy"]),
    }


def print_report(name: str, args, report: dict) -> None:
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
          f"{'  tiny' if args.tiny else ''}")
    print("env " + json.dumps(report["env"]))
    rows = dict(report["metrics"], fail_ratio=report["fail_ratio"],
                machine_speed=report["machine_speed"])
    for metric, (value, unit, samples) in rows.items():
        print(f"  {metric:34s} {value:>14.6g} {unit:16s} samples {samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pseudoplanar" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'pseudoplanar'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / f".perfbench-run-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _timeout)
    reports = {}
    try:
        for name in names:
            signal.alarm(TIME_LIMIT_S)
            reports[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny, workdir)
            signal.alarm(0)
            print_report(name, args, reports[name])
    except (BenchError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)

    prefix = len(names) > 1
    final = {
        "correct": all(r["failed"] == 0 for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, r in reports.items()
            for metric, (value, unit, _) in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
