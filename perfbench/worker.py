"""One workload in a fresh process, so that set-up time and peak memory
belong to that workload alone.

    python3 perfbench/worker.py --workload W --seed N --units K --mode M
        [--serial] [--smoke]

Modes: ``setup`` imports the library, builds the inputs and reports the time
that took; ``run`` also makes the calls, untraced; ``trace`` makes them with
spans recorded around each layer.  ``--serial`` runs verify with jobs=1,
so the spans of its pooled work stay in this process.  Every answer is
checked after its unit, outside the timed region.  The result is one JSON
object on the last line of standard output.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

sys.path.insert(0, str(workloads.ROOT / "src"))
import quadloci  # noqa: E402
from quadloci import algebra, cli, loci, verify  # noqa: E402


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_cli(argv):
    """cli.main(argv) with its output captured: (exit code, stdout, stderr,
    whether it raised)."""
    out, err = io.StringIO(), io.StringIO()
    raised = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:
            code = stop.code
            if code is None:
                code = 0
            elif not isinstance(code, int):
                print(code, file=sys.stderr)
                code = 1
        except Exception as exc:  # an uncaught exception is a failed request
            code, raised = None, True
            print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
    return code, out.getvalue(), err.getvalue(), raised


def invoke(call):
    """The library calls one workload call makes: the only timed code."""
    kind = call[0]
    if kind == "cli":
        return run_cli(call[1:])
    if kind == "verify":
        _, max_e, jobs = call
        return verify.run_all(max_e=max_e, jobs=jobs)
    raise ValueError("unknown call %r" % (call,))


def canonical(p) -> str:
    """A class as the README's JSON coefficient map."""
    return json.dumps(cli.poly_document(p, "", {})["coefficients"], sort_keys=True)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify_counts(rows):
    """[PASS, WARN, FAIL] row counts of a verify.run_all result."""
    return [sum(1 for _, row in rows if row.status == s) for s in ("PASS", "WARN", "FAIL")]


def verify_digest(rows) -> str:
    return sha256("\n".join("%s\t%s\t%s" % (row.status, group, row.tag) for group, row in rows))


class Checker:
    """Checks every answer against the reference recorded at the seed commit
    and, for divisorial classes, against the closed form."""

    def __init__(self, reference):
        self.ref = reference
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.emit_bytes = 0
        self.rows = {"PASS": 0, "WARN": 0, "FAIL": 0}

    def check(self, call, value, error):
        if call[0] == "cli":
            self._check_cli(call, *value)
        else:
            self._check_verify(call, value, error)

    def _check_cli(self, call, code, out, err, raised):
        self.attempted += 1
        self.emit_bytes += len(out.encode())
        got = workloads.cli_outcome(code, raised, err)
        want = self.ref["calls"].get(workloads.call_key(call))
        if got == "failed":
            self.failed += 1
        if want is None:
            self.wrong.append("%s: no reference recorded" % (call,))
        elif want["outcome"] == "ok":
            if got != "ok" or want["sha256"] != sha256(out):
                self.wrong.append("%s: output differs from the reference" % (call,))
            elif call[1:3] == ("class", "sigma"):
                self._check_divisorial(call, out)
        elif want["outcome"] == "usage" and got not in ("usage", "failed"):
            self.wrong.append("%s: malformed request was not rejected" % (call,))

    def _check_divisorial(self, call, out):
        """A `class sigma --method closed|residue --basis chern` answer must
        equal the closed form computed here, apart from the reference."""
        opts = dict(zip(call[3::2], call[4::2]))
        if opts["--basis"] != "chern":
            return
        closed = loci.closed_divisor_class(int(opts["--e"]), int(opts["--r"]))
        if json.loads(out)["coefficients"] != json.loads(canonical(closed)):
            self.wrong.append("%s: differs from the closed form" % (call,))

    def _check_verify(self, call, rows, error):
        if error is not None:
            self.attempted += 1
            self.failed += 1
            self.wrong.append("%s: run_all raised %s: %s" % (call, type(error).__name__, error))
            return
        got = verify_counts(rows)
        for status, n in zip(("PASS", "WARN", "FAIL"), got):
            self.rows[status] += n
        self.attempted += len(rows)
        self.failed += got[2]
        want = self.ref["verify"][str(call[1])]
        if got != want["counts"] or verify_digest(rows) != want["sha256"]:
            self.wrong.append("%s: rows %s differ from the reference %s" % (call, got, want["counts"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--units", type=int, default=1)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    ap.add_argument("--serial", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    units = [workloads.unit_calls(args.workload, args.seed, u, args.smoke, args.serial)
             for u in range(args.units)]
    setup_s = time.perf_counter() - T_START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checker = Checker(json.loads(workloads.REFERENCE.read_text()))
    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    unit_wall, unit_pool_cpu, unit_call_wall, unit_call_cpu = [], [], [], []
    for u, calls in enumerate(units):
        results, walls, cpus = [], [], []
        gc.collect()  # garbage from the previous unit is not this unit's cost
        pool0 = _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.call_id = u * len(calls) + i
            k0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
            c0 = time.perf_counter()
            try:
                value, error = invoke(call), None
            except Exception as exc:  # counted as a failed call
                value, error = None, exc
            walls.append(time.perf_counter() - c0)
            cpus.append(_cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - k0)
            results.append((call, value, error))
        unit_wall.append(time.perf_counter() - t0)
        unit_pool_cpu.append(_cpu(resource.RUSAGE_CHILDREN) - pool0)
        unit_call_wall.append(walls)
        unit_call_cpu.append(cpus)
        if tracer is not None:
            tracer.enabled = False
        for call, value, error in results:
            checker.check(call, value, error)
        if tracer is not None:
            tracer.enabled = True

    result = {
        "setup_s": setup_s,
        "unit_wall_s": unit_wall,
        "unit_call_s": unit_call_wall,
        "unit_call_cpu_s": unit_call_cpu,
        "unit_pool_cpu_s": unit_pool_cpu,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "wrong": checker.wrong[:20],
        "wrong_count": len(checker.wrong),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "context": {
            "python": platform.python_version(),
            "backend": algebra.QQ.__module__,
            "library": os.path.relpath(quadloci.__file__, workloads.ROOT),
            "inputs": [list(call) for call in units[0]],
        },
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["cli.emit_bytes"] = checker.emit_bytes
        for status in ("PASS", "WARN", "FAIL"):
            layers["verify.rows_%s" % status.lower()] = checker.rows[status]
        result["layers"] = layers
        workloads.OUT_DIR.mkdir(exist_ok=True)
        run_id = "%s-s%d%s" % (args.workload, args.seed, "-smoke" if args.smoke else "")
        spans_path = workloads.OUT_DIR / ("spans-%s.jsonl" % run_id)
        tracer.write(spans_path, run_id)
        result["spans_file"] = os.path.relpath(spans_path, workloads.ROOT)
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
