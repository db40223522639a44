#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [--ops 3] [--seed 0]

Runs every workload for a few ops with all checks on (plus one traced op
each, which must leave dgsym's functions as it found them), then shows that
each check rejects a deliberately wrong output: a swapped class tag, a failed
verification row, a perturbed final field and one flipped byte in a
read-back trajectory.  Exit code 0 iff every line reads "ok".
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import spans

workloads = None  # imported in main(), once ./src is on the path
failures = []


def report(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def rejects(wl, inp, out, what):
    try:
        wl.check(inp, out)
    except workloads.CheckFailed as exc:
        report(True, f"{wl.name}: {what} is rejected ({exc})")
        return
    report(False, f"{wl.name}: {what} passed the check")


def swap_tags(out):
    code, stdout, stderr = out
    rows = workloads.json_rows(stdout)
    i = next(j for j in range(1, len(rows)) if rows[j]["class"] != rows[0]["class"])
    rows[0]["class"], rows[i]["class"] = rows[i]["class"], rows[0]["class"]
    text = "".join(json.dumps(r) + "\n" for r in rows)
    return code, text, stderr


def fail_row(out):
    rows, runs = out
    label, _ = rows[len(rows) // 2]
    rows = list(rows)
    rows[len(rows) // 2] = (label, False)
    return rows, runs


def perturb_final(out):
    traj, rep = out
    fin = traj[-1]
    fin.r[fin.r.shape[0] // 2, fin.r.shape[1] // 3] += 0.05
    return traj, rep


def flip_byte(inp, out):
    """Change one mantissa digit of r in a written snapshot, then read back."""
    path = os.path.join(inp.out, "snap00003.csv")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    line_start = data.index(b"\n", data.index(b"\n") + 1) + 1  # third line
    r_field = line_start
    for _ in range(2):  # skip the x and t columns
        r_field = data.index(b",", r_field) + 1
    pos = r_field + 1 if data[r_field:r_field + 1] == b"-" else r_field
    pos += 5  # a digit well inside the mantissa
    data[pos] = ord("0") + (data[pos] - ord("0") + 1) % 10
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    result, evolved, _ = out
    return result, evolved, workloads.fields.read_trajectory(inp.out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ops", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    global workloads
    workloads = run.import_dgsym()

    workdir = str(run.OUT / f"selfcheck-{os.getpid()}")
    try:
        for name in run.ORDER:
            wl = workloads.WORKLOADS[name](args.seed, workdir)
            before = len(failures)
            for k in range(args.ops):
                inp = wl.stage(k)
                out = wl.op(inp)
                try:
                    wl.check(inp, out)
                    if k == 0:
                        wl.run_check(inp)
                except workloads.CheckFailed as exc:
                    report(False, f"{name}: op {k} failed its check: {exc}")
                wl.cleanup(k)
            report(len(failures) == before, f"{name}: {args.ops} ops pass every check")

            tracer = spans.Tracer()
            tracer.op = "selfcheck"
            inp = wl.stage(args.ops)
            tracer.install()
            try:
                out = wl.op(inp, tracer)
            finally:
                tracer.uninstall()
            wl.check(inp, out)
            wl.cleanup(args.ops)
            report(tracer.originals_restored() and len(tracer.spans) > 0,
                   f"{name}: a traced op records {len(tracer.spans)} spans and "
                   "leaves dgsym's functions restored")

            inp = wl.stage(args.ops + 1)
            out = wl.op(inp)
            if name == "classify":
                rejects(wl, inp, swap_tags(out), "a swapped class tag")
            elif name == "verify":
                rejects(wl, inp, fail_row(out), "a failed verification row")
            elif name == "evolve":
                rejects(wl, inp, perturb_final(out), "a perturbed final field")
            else:
                rejects(wl, inp, flip_byte(inp, out), "a flipped byte in the read-back trajectory")
            wl.cleanup(args.ops + 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selfcheck: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
