"""One benchmark process: set the program up, run a workload's ops, report.

    python3 perfbench/worker.py '<json config>'

Config keys: root, workload, scale, seed, seconds, max_ops (null: no limit),
mode ("probe", "plain" or "traced") and workdir.  The process prints
"READY <json>" as soon as the program is set up (run.py times that line from
process start), then times the calibration kernel (calibrate.py), and
prints "RESULT <json>" at the end.  Between ops the kernel is timed again
whenever CAL_EVERY_S has passed; each op reports the mean kernel time of the
two calibrations around it.  A traced process also writes its spans to
<workdir>/spans.npz.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import calibrate
import spans
import workloads

CAL_EVERY_S = 0.1


def main() -> None:
    cfg = json.loads(sys.argv[1])
    import numpy
    import pseudoplanar as pp

    src = Path(cfg["root"]).resolve() / "src"
    if Path(pp.__file__).resolve().parent.parent != src:
        raise SystemExit(f"pseudoplanar was imported from {pp.__file__}, not from {src}")
    workdir = Path(cfg["workdir"])
    wl = workloads.WORKLOADS[cfg["workload"]](cfg["scale"], workdir)
    ready = wl.setup(pp)
    ready["numpy"] = numpy.__version__
    print("READY " + json.dumps(ready), flush=True)
    calibration = calibrate.Kernel(wl.calibration).time
    cals = [calibration()]
    if cfg["mode"] == "probe":
        print("RESULT " + json.dumps({"setup_cal": cals[0]}), flush=True)
        return

    api = SimpleNamespace(**{name: getattr(pp, name) for name in workloads.API_NAMES})
    tracer = None
    if cfg["mode"] == "traced":
        tracer = spans.Tracer()
        tracer.install(pp)
        api = tracer.api(api)

    max_ops = cfg["max_ops"] or float("inf")
    latencies, items, ok, cal_before = [], [], [], []
    stream = wl.ops(cfg["seed"])
    op = next(stream)
    last_cal = perf_counter()
    deadline = last_cal + cfg["seconds"]
    while len(latencies) < max_ops and (not latencies or perf_counter() < deadline):
        if tracer is not None:
            tracer.op = len(latencies)
        cal_before.append(len(cals) - 1)
        start = perf_counter()
        try:
            out, error = wl.run(api, op), None
        except Exception:
            out, error = None, traceback.format_exc()
        latencies.append(perf_counter() - start)
        good = False
        if error is None:
            try:
                good = wl.check(pp, op, out)
            except Exception:
                error = traceback.format_exc()
        if not good:
            print(f"FAILED op {len(latencies) - 1} {json.dumps(op)}: "
                  f"{error or 'result differs from the oracle'}", file=sys.stderr)
        items.append(wl.items(op))
        ok.append(bool(good))
        op = next(stream)
        if perf_counter() - last_cal >= CAL_EVERY_S:
            cals.append(calibration())
            last_cal = perf_counter()
    cals.append(calibration())

    if tracer is not None:
        tracer.save(workdir / "spans.npz")
    result = {
        "latencies": latencies,
        "cal": [(cals[j] + cals[j + 1]) / 2 for j in cal_before],
        "setup_cal": cals[0],
        "items": items,
        "ok": ok,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
