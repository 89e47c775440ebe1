"""Record the reference answers the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every input any seed can generate, once, and writes
perfbench/reference.json: the SHA-256 of each answer's canonical text, the
outcome class of each CLI request, and the verify row counts and digest.
Run it only at a commit whose answers are known to be right; the benchmark
treats any later difference as a wrong answer.
"""

import json
import sys

import run
import workloads
import worker


def main() -> int:
    calls = {}

    def record(call, entry):
        calls[workloads.call_key(call)] = entry
        print("%-8s %s" % (entry["outcome"], workloads.call_key(call)), flush=True)

    expected = {tuple(argv): "usage" for argv in workloads.CLI_MALFORMED}
    expected.update({tuple(argv): "failed" for argv in workloads.CLI_KNOWN_DEFECTS})
    for argv in workloads.cli_universe():
        code, out, err, raised = worker.run_cli(argv)
        outcome = workloads.cli_outcome(code, raised, err)
        want = expected.get(tuple(argv), "ok")
        if outcome != want:
            print("unexpected outcome %s (want %s) for %s: %s" % (outcome, want, argv, err),
                  file=sys.stderr)
            return 1
        entry = {"outcome": outcome}
        if outcome == "ok":
            entry["sha256"] = worker.sha256(out)
        record(("cli", *argv), entry)

    verify_ref = {}
    for max_e in (workloads.VERIFY_MAX_E, workloads.VERIFY_SMOKE_MAX_E):
        rows = worker.invoke(("verify", max_e, workloads.JOBS["verify"]))
        counts = worker.verify_counts(rows)
        verify_ref[str(max_e)] = {"counts": counts, "sha256": worker.verify_digest(rows)}
        print("verify max_e=%d rows %s" % (max_e, counts), flush=True)

    doc = {
        "git_sha": run.git_sha(workloads.ROOT),
        "source_sha256": run.source_sha(workloads.ROOT),
        "backend": worker.algebra.QQ.__module__,
        "calls": calls,
        "verify": verify_ref,
    }
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
