#!/usr/bin/env python3
"""dgsym benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload {classify,verify,evolve,simulate}
        --seed N --seconds S --trace {0,1}

Run from the root of a dgsym checkout; dgsym is imported from ./src.  Each op
is one fixed-size unit of work on inputs staged from (seed, op index); the
next op starts only after the previous one and its checks have finished.
Ops run for --seconds of wall time; staging and checks lie outside the timed
intervals of the ops.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_ms, setup_s (the
median of three fresh processes timed from start to the end of their warm-up
op) and peak_rss_mb.  The three times are scaled to reference machine speed
by a calibration kernel timed beside every op and probe (see calib.py).
--trace 1 alternates traced and untraced ops and prints the per-layer metrics
from the traced ones, as measured, plus the tracing overhead and the
calibration time.  The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calib
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = Path.cwd() / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
ORDER = ("classify", "verify", "evolve", "simulate")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ORDER)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # internal: one timed set-up
    return ap.parse_args(argv)


def say(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.stderr.flush()


def import_dgsym():
    if not (SRC / "dgsym" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dgsym sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def setup_probe(args) -> int:
    """Child process: import, stage op 0, run it once, report ready, then
    report the calibration kernel's time in this process."""
    workloads = import_dgsym()
    workdir = OUT / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        wl.op(wl.stage(0))
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        wl.calibration()  # the first call in a process pays one-time costs
        sys.stdout.write(f"{wl.calibration()!r}\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def time_setups(args) -> list:
    """(wall time from process start to the end of the warm-up op, kernel
    time the probe measured right after it) per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            kernel = proc.communicate(timeout=60)[0]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        times.append((elapsed, float(kernel)))
    return times


class Runner:
    def __init__(self, workloads, wl, tracer):
        self.workloads = workloads
        self.wl = wl
        self.tracer = tracer
        self.problems = []

    def check(self, wl, inp, out):
        try:
            wl.check(inp, out)
        except self.workloads.CheckFailed as exc:
            self.problems.append(f"{wl.name}: {exc}")
            say(f"CHECK FAILED {wl.name}: {exc}")

    def one(self, wl, k, traced, op_id=None):
        """Stage, run, check and clean up op k.

        Returns (op duration, calibration kernel time right after it), or
        None when the op raised.  A traced op's spans are tagged with
        ``op_id`` (default k).
        """
        inp = wl.stage(k)
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.op = k if op_id is None else op_id
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = wl.op(inp, tracer)
            elapsed = time.perf_counter() - t0
        except Exception:  # a failed op is counted, the run goes on
            say(f"op {k} of {wl.name} failed:\n{traceback.format_exc()}")
            elapsed = out = None
        finally:
            if tracer is not None:
                tracer.uninstall()
        result = None
        if out is not None:
            result = (elapsed, wl.calibration())
            if tracer is not None:
                tracer.annotate_writes(tracer.op)
            self.check(wl, inp, out)
        wl.cleanup(k)
        return result

    def timed_loop(self, seconds):
        """Ops 1, 2, ... until ``seconds`` of wall time have passed."""
        plain, traced = [], []
        attempted = failed = 0
        end = time.perf_counter() + seconds
        k = 1
        while time.perf_counter() < end:
            use_trace = self.tracer is not None and k % 2 == 1
            timing = self.one(self.wl, k, use_trace)
            attempted += 1
            if timing is None:
                failed += 1
            else:
                (traced if use_trace else plain).append(timing)
            k += 1
        return plain, traced, attempted, failed

    def sweep(self, workdir, seed):
        """One traced op of each other workload whose layers this one lacks.

        Gives a measured per-call time for every layer metric on every
        workload; those ops are not counted in attempted or in any per-op
        count.
        """
        have = {s[0] for s in self.tracer.spans}
        want = {m[3] for m in spans.LAYER_METRICS}
        groups = []
        for name in ORDER:
            if name == self.wl.name or want <= have:
                continue
            other = self.workloads.WORKLOADS[name](seed, workdir)
            self.one(other, 0, False)  # warm-up
            self.one(other, 1, True, op_id=f"sweep-{name}")
            groups.append([f"sweep-{name}"])
            have |= {s[0] for s in self.tracer.spans}
        return groups


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    workloads = import_dgsym()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(workloads, wl, tracer)
    try:
        warm = wl.stage(0)
        out = wl.op(warm)
        runner.check(wl, warm, out)
        try:
            extra = wl.run_check(warm)
        except workloads.CheckFailed as exc:
            runner.problems.append(f"{wl.name}: {exc}")
            extra = None
        wl.cleanup(0)
        if extra is not None:
            say(f"{wl.name} run check: {extra:.4g}")

        plain, traced, attempted, failed = runner.timed_loop(args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = [calib.scaled(e, c) for e, c in plain]
        if tracer is None:
            setups = time_setups(args)
            metrics = {
                "ops_per_s": {"value": len(ops) / sum(ops), "unit": "1/s"},
                "op_p50_ms": {"value": statistics.median(ops) * 1e3, "unit": "ms"},
                "setup_s": {"value": statistics.median(calib.scaled(e, c) for e, c in setups),
                            "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            raw = statistics.median(e for e, _ in plain) * 1e3
            kernel = statistics.median(c for _, c in plain) * 1e3
            say(f"{len(plain)} ops, measured op p50 {raw:.1f} ms, calibration "
                f"kernel {kernel:.2f} ms, set-ups {[(round(e, 3), round(c * 1e3, 2)) for e, c in setups]}")
        else:
            groups = runner.sweep(str(workdir), args.seed)
            own = [k for k in range(1, attempted + 1) if k % 2 == 1]
            metrics = tracer.layer_metrics(own, groups)
            overhead = statistics.median(calib.scaled(e, c) for e, c in traced) \
                / statistics.median(ops) - 1.0
            metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
            metrics["calib.kernel_ms"] = {
                "value": statistics.median(c for _, c in plain + traced) * 1e3, "unit": "ms"}
            path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(path)
            say(f"{len(traced)} traced + {len(plain)} untraced ops, "
                f"{len(tracer.spans)} spans written to {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not runner.problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
