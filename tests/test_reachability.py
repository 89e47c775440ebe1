"""Every function in ``src/quadloci`` is reached by a product path, or is
named in ``KEPT`` with the reason it stays.

A product path is one of the requests of ``perfbench/workloads.py``'s
``cli_universe()`` or ``verify all --max-e 5``.  The probe runs them in a
fresh interpreter with a profiler installed before ``import quadloci``, so
calls made while the modules load count too (``grr._ZERO`` and
``moduli.C1_QUADRATIC_DIFFERENTIALS`` are built then).  Each function is known
by its file and first line, the first decorator's or the ``def``'s: that is
its code object's ``co_firstlineno`` on every supported Python.

    python3 tests/test_reachability.py          # the gate, without pytest
    python3 tests/test_reachability.py --probe  # the reached (file, line)s
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quadloci"

_CONTRACT = "contract: "
_TRACER = "perfbench tracer target or its helper; leaves with ROADMAP 22"

# (file, qualified name) -> why the function stays though no product path
# reaches it
KEPT = {
    ("algebra.py", "Polynomial.__init__"):
        _CONTRACT + "the public constructor; the library builds through _make",
    ("algebra.py", "Polynomial.__setattr__"): _CONTRACT + "a Polynomial is immutable",
    ("algebra.py", "Polynomial.__reduce__"): _CONTRACT + "a Polynomial pickles",
    ("algebra.py", "Polynomial.rename"):
        "the Polynomial API's relabelling of variables; the tests' symmetry checks use it",
    ("algebra.py", "RationalFunction.__setattr__"):
        _CONTRACT + "a RationalFunction is immutable",
    ("algebra.py", "RationalFunction.__reduce__"): _CONTRACT + "a RationalFunction pickles",
    ("algebra.py", "Polynomial.leading"): _TRACER + " (_reduce_symmetric_part)",
    ("grr.py", "TautClass.__setattr__"): _CONTRACT + "a TautClass is immutable",
    ("grr.py", "TautClass.__reduce__"): _CONTRACT + "a TautClass pickles",
    ("algebra.py", "FrozenDict._refuse"): _CONTRACT + "a FrozenDict is read-only",
    ("algebra.py", "FrozenDict.__reduce__"): _CONTRACT + "a FrozenDict pickles",
    ("grr.py", "TautClass.__hash__"): _CONTRACT + "equal classes hash equal",
    ("grr.py", "grr_rank"): _CONTRACT + "the rank of a GRR pushforward",
    ("algebra.py", "RationalFunction.reduce"): _TRACER + " (a no-op: values form reduced)",
    ("algebra.py", "sum_fractions"): _TRACER,
    ("algebra.py", "symmetric_reduce"): _TRACER,
    ("algebra.py", "is_symmetric"): _TRACER + " (symmetric_reduce)",
    ("algebra.py", "_reduce_symmetric_part"): _TRACER + " (symmetric_reduce)",
    ("algebra.py", "NotSymmetric.__init__"): _TRACER + " (symmetric_reduce)",
    ("loci.py", "to_chern_symbols"): _TRACER,
    ("symfunc.py", "schur"): _TRACER,
    ("symfunc.py", "_det"): _TRACER + " (schur)",
    ("symfunc.py", "_det.minor"): _TRACER + " (schur)",
    ("symfunc.py", "sym_degeneracy_class"): _TRACER,
}


def defined_functions() -> dict:
    """(file, first line) -> (file, qualified name) of every ``def`` under
    SRC; a nested function is qualified by its enclosing ones."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    name = prefix + child.name
                    out[(path.name, first)] = (path.name, name)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)
        visit(ast.parse(path.read_text()), "")
    return out


def probe() -> list:
    """Run every product path and return the reached (file, first line)s
    under SRC.  Call only in a fresh interpreter that has not imported
    quadloci."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads  # builds argv lists only; never imports the library

    sys.setprofile(profile)
    try:
        from quadloci import cli

        requests = workloads.cli_universe() + [["verify", "all", "--max-e", "5"]]
        for argv in requests:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(list(argv))
                except (SystemExit, Exception):
                    pass  # a usage error or a known defect; its calls still count
    finally:
        sys.setprofile(None)
    src = str(SRC)
    return sorted({(Path(c.co_filename).name, c.co_firstlineno)
                   for c in codes if str(Path(c.co_filename).parent) == src})


def gate_failures() -> list:
    """The gate's complaints, one line each; empty when it passes."""
    run = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe"],
                         cwd=ROOT, capture_output=True, text=True)
    if run.returncode:
        return ["the probe failed:\n" + run.stderr]
    reached_at = {tuple(key) for key in json.loads(run.stdout)}
    defined = defined_functions()
    names = set(defined.values())
    reached = {defined[key] for key in reached_at if key in defined}
    fails = []
    for name in sorted(names - reached - set(KEPT)):
        fails.append("unreached by any product path and not in KEPT: %s:%s" % name)
    for name in sorted(set(KEPT) - names):
        fails.append("KEPT names a function that is gone: %s:%s" % name)
    for name in sorted(set(KEPT) & reached):
        fails.append("KEPT names a function a product path reaches: %s:%s" % name)
    return fails


def test_every_function_is_reached_or_kept():
    fails = gate_failures()
    assert not fails, "\n".join(fails)


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps(probe()))
    else:
        complaints = gate_failures()
        print("\n".join(complaints) or "every function is reached or kept")
        sys.exit(1 if complaints else 0)
