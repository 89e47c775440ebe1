"""Write moduli_documents.json: the stdout and exit code of every moduli,
K3, Hurwitz, `class sigma` (closed and residue), `class pencil` and
`class projectivize` request below, as `quadloci.cli.main` answers it
in-process.

    PYTHONPATH=src python tests/data/make_moduli_documents.py

The requests run with this directory as the working directory, because
`class projectivize` echoes its `--weights` path; `weights_a.json` and
`weights_b.json` here are copies of the files in `perfbench/data/`.
`tests/test_cli.py` replays the requests the same way and compares byte
for byte.
"""

import contextlib
import io
import json
import os
from math import comb

from quadloci import cli

HERE = os.path.dirname(os.path.abspath(__file__))

# the (r, s, a) triples of `moduli slope --custom` that are replayed
CUSTOM_SLOPES = ((7, 3, 4), (4, 2, 3), (6, 3, 5), (8, 4, 7),
                 (10, 5, 9), (11, 4, 5), (3, 1, 1), (5, 1, 1))

# the weight files of `class projectivize`, with their number of fixed points
WEIGHTS = (("weights_a.json", 2), ("weights_b.json", 3))
CLASSES = ("a1 + 2*a2 + 2*a3", "(a1 - a2)^3 + a3", "a1*a2*a3",
           "2/3*a1^2 - a3", "(a1 + a2 + a3)^2")


def requests():
    for g in range(4, 28):
        yield ["moduli", "petri", "--g", str(g)]
    for s in (1, 2):
        for ell in range(1, 7):
            for form in ("closed", "deficit"):
                yield ["moduli", "slope", "--series", str(s), "--ell", str(ell),
                       "--form", form]
    for r, s, a in CUSTOM_SLOPES:
        yield ["moduli", "slope", "--custom", "--r", str(r), "--s", str(s),
               "--a", str(a)]
    yield ["moduli", "dp12"]
    yield ["k3", "rank4"]
    for g in range(3, 22):
        yield ["k3", "rank4", "--g", str(g)]
    yield ["k3", "kosz"]
    for i in range(1, 12):
        yield ["k3", "kosz", "--i", str(i)]
    yield ["hurwitz"]
    for k in range(4, 15):
        yield ["hurwitz", "--k", str(k)]
    for e in range(2, 6):
        for r in range(1, e + 1):
            f = comb(e + 1, 2) - comb(r + 1, 2)
            if f < 1:
                continue
            for method in ("closed", "residue"):
                for basis in ("chern", "roots"):
                    yield ["class", "sigma", "--e", str(e), "--f", str(f),
                           "--r", str(r), "--method", method, "--basis", basis]
    for e in range(2, 9):
        for p in ("sub", "quot"):
            yield ["class", "pencil", "--e", str(e), "--presentation", p]
    for cls in CLASSES:
        for path, n_points in WEIGHTS:
            yield ["class", "projectivize", "--class", cls, "--weights", path]
            for j in range(n_points):
                yield ["class", "projectivize", "--class", cls, "--weights",
                       path, "--fixed-point", str(j)]


def answer(argv):
    """(exit code, stdout) of one request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main():
    os.chdir(HERE)
    entries = []
    for argv in requests():
        code, stdout = answer(argv)
        entries.append({"argv": argv, "exit": code, "stdout": stdout})
    path = os.path.join(HERE, "moduli_documents.json")
    with open(path, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print("%d documents written to %s" % (len(entries), path))


if __name__ == "__main__":
    main()
