"""The quadloci benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {cli,verify,all}
        --seed N --seconds S --trace {0,1,both} [--smoke]

Run from the root of a checkout.  Each workload runs in fresh worker
processes (perfbench/worker.py), so set-up time and peak memory belong to it.

--trace 0   end-to-end metrics, tracing off: wall_s, cpu_s, setup_s,
            peak_rss_mb, call_p50_ms, call_tail_ms.
--trace 1   per-layer metrics from a traced run, plus trace.overhead_frac
            against an untraced run of the same unit; verify runs with
            jobs=1 in both, so no span is lost in a fork worker.

Every answer is checked; a wrong answer makes the command exit 1.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  perfbench/README.md documents the
workloads, the metrics and the seed baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads
from tracer import PER_LAYER

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
]

# Set-up is measured in this many processes that only set up, half before
# the measured one and half after it, plus the measured one; setup_s is the
# median of them all.
SETUP_REPEATS = 8

# Every run must end within 180 s; workers get what is left of this.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def git_sha(root) -> str:
    """HEAD's sha read from .git without running git; "unknown" outside a
    git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha(root) -> str:
    files = sorted((root / "src" / "quadloci").glob("*.py"))
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def worker(self, workload, mode, units=1, serial=False):
        cmd = [sys.executable, str(workloads.BENCH / "worker.py"), "--workload", workload,
               "--seed", str(self.args.seed), "--units", str(units), "--mode", mode]
        if serial:
            cmd.append("--serial")
        if self.args.smoke:
            cmd.append("--smoke")
        env = {k: v for k, v in os.environ.items() if k not in ("QUADLOCI_JOBS", "PYTHONPATH")}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the %s %s worker" % (workload, mode))
        # its own session, so a timeout can stop the fork pool with it
        proc = subprocess.Popen(cmd, cwd=workloads.ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("%s %s worker timed out" % (workload, mode))
        if proc.returncode != 0 or not out.strip():
            raise BenchError("%s %s worker exited %s:\n%s"
                             % (workload, mode, proc.returncode, err[-2000:]))
        result = json.loads(out.strip().splitlines()[-1])
        library = result.get("context", {}).get("library")
        if library is not None and not library.startswith("src" + os.sep):
            raise BenchError("imported the library from %s, not from this checkout" % library)
        return result

    def end_to_end(self, workload):
        units = workloads.units_for(workload, self.args.seconds, self.args.smoke)
        half = SETUP_REPEATS // 2
        setups = [self.worker(workload, "setup")["setup_s"] for _ in range(half)]
        res = self.worker(workload, "run", units)
        setups.append(res["setup_s"])
        setups += [self.worker(workload, "setup")["setup_s"] for _ in range(SETUP_REPEATS - half)]
        calls = [t for unit in res["unit_call_s"] for t in unit]
        tail, percentile, n = workloads.tail(calls)
        metrics = {
            "wall_s": statistics.median(res["unit_wall_s"]),
            "cpu_s": statistics.median(sum(unit) for unit in res["unit_call_cpu_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "call_p50_ms": 1e3 * statistics.median(calls),
            "call_tail_ms": 1e3 * tail,
        }
        notes = {
            "units": units,
            "unit_wall_s": res["unit_wall_s"],
            "setup_s_samples": setups,
            "call_tail": "p%.2f of %d calls" % (percentile, n),
        }
        return metrics, res, notes

    def per_layer(self, workload):
        base = self.worker(workload, "run", 1, serial=True)
        res = self.worker(workload, "trace", 1, serial=True)
        metrics = dict(res["layers"])
        metrics["trace.overhead_frac"] = res["unit_wall_s"][0] / base["unit_wall_s"][0] - 1.0
        # The traced units run serially; the fork pool's CPU is read from an
        # untraced unit at the workload's own jobs setting.
        pooled = self.worker(workload, "run", 1) if workloads.JOBS[workload] > 1 else res
        metrics["loci.pool_cpu_s"] = pooled["unit_pool_cpu_s"][0]
        notes = {"spans": res["spans"], "spans_file": res["spans_file"],
                 "untraced_wall_s": base["unit_wall_s"][0],
                 "traced_wall_s": res["unit_wall_s"][0],
                 "pool_cpu_s_jobs": workloads.JOBS[workload]}
        checked = [base, res] + ([pooled] if pooled is not res else [])
        res["wrong"] = [line for r in checked for line in r["wrong"]]
        res["wrong_count"] = sum(r["wrong_count"] for r in checked)
        return metrics, res, notes


def report(workload, trace, metrics, res, notes, args, context):
    units = dict(END_TO_END if trace == 0 else PER_LAYER)
    print("== %s (trace %d, seed %d%s)" % (workload, trace, args.seed,
                                           ", smoke" if args.smoke else ""))
    for name, unit in units.items():
        print("  %-44s %16.6g %s" % (name, metrics[name], unit))
    failed_frac = res["failed"] / res["attempted"]
    print("  %-44s %16.6g %s  (%d of %d calls)" % ("failed_frac", failed_frac, "ratio",
                                                  res["failed"], res["attempted"]))
    for key, value in notes.items():
        print("  %s: %s" % (key, value))
    ctx = dict(context, python=res["context"]["python"], backend=res["context"]["backend"],
               jobs=workloads.JOBS[workload] if trace == 0 else 1, seed=args.seed)
    print("  context: " + json.dumps(ctx, sort_keys=True))
    print("  inputs: %d calls per unit, first %s" % (len(res["context"]["inputs"]),
                                                    json.dumps(res["context"]["inputs"][:3])))
    for line in res["wrong"]:
        print("  WRONG: " + line)
    record = {
        "workload": workload, "trace": trace, "smoke": args.smoke, "context": ctx,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "failed_frac": failed_frac, "attempted": res["attempted"], "failed": res["failed"],
        "wrong": res["wrong"], "notes": notes, "inputs": res["context"]["inputs"],
        "unit_call_s": res["unit_call_s"],
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    name = "result-%s-s%d-t%d%s.json" % (workload, args.seed, trace, "-smoke" if args.smoke else "")
    (workloads.OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="quadloci benchmark")
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", default="both", choices=("0", "1", "both"))
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs and one unit, for the benchmark's own test")
    args = ap.parse_args(argv)

    root = workloads.ROOT
    if not (root / "src" / "quadloci" / "__init__.py").is_file():
        print("error: no library source at src/quadloci under %s; run from a full checkout"
              % root, file=sys.stderr)
        return 2
    if not workloads.REFERENCE.is_file():
        print("error: missing %s" % workloads.REFERENCE, file=sys.stderr)
        return 2
    context = {"git_sha": git_sha(root), "source_sha256": source_sha(root),
               "nproc": os.cpu_count()}

    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, combined = True, 0, 0, {}
    try:
        for workload in names:
            for trace in traces:
                runner = Runner(args)
                if trace == 0:
                    metrics, res, notes = runner.end_to_end(workload)
                else:
                    metrics, res, notes = runner.per_layer(workload)
                report(workload, trace, metrics, res, notes, args, context)
                correct = correct and res["wrong_count"] == 0
                attempted += res["attempted"]
                failed += res["failed"]
                units = dict(END_TO_END if trace == 0 else PER_LAYER)
                for name, value in metrics.items():
                    key = name if len(names) == 1 else "%s.%s" % (workload, name)
                    combined[key] = {"value": value, "unit": units[name]}
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
