"""Write golden.json: how `quadloci.cli.main` answers, in process and from
the repository root, every benchmark request (`cli_universe()` of
`perfbench/workloads.py`) and `verify all --max-e N` for N = 2, 4 and 5.

    PYTHONPATH=src python tests/data/make_golden.py

Each entry holds the argv, the outcome class of `workloads.cli_outcome`,
the exit code, the type of an exception that left `main` (`SystemExit` for
an argparse usage error; null when `main` returned), stdout and stderr.
`tests/test_cli.py` replays every entry.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("golden.json")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402  builds argv lists only
from quadloci import cli  # noqa: E402


def requests():
    return workloads.cli_universe() + [["verify", "all", "--max-e", str(n)] for n in (2, 4, 5)]


def answer(argv):
    """The golden entry of one request; run it from the repository root,
    because projectivize echoes its relative --weights path."""
    out, err = io.StringIO(), io.StringIO()
    code = raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:
            code, raised = stop.code, "SystemExit"
        except Exception as exc:  # a known defect of the benchmark's table
            raised = type(exc).__name__
    crashed = raised not in (None, "SystemExit")
    return {"argv": argv, "outcome": workloads.cli_outcome(code, crashed, err.getvalue()),
            "exit": code, "raised": raised, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    os.chdir(ROOT)
    entries = [answer(argv) for argv in requests()]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print("%d entries written to %s" % (len(entries), GOLDEN))


if __name__ == "__main__":
    main()
