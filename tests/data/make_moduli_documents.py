"""Write moduli_documents.json: the stdout and exit code of every moduli,
K3 and Hurwitz request below, as `quadloci.cli.main` answers it in-process.

    PYTHONPATH=src python tests/data/make_moduli_documents.py

`tests/test_cli.py` replays the requests and compares byte for byte.
"""

import contextlib
import io
import json
import os

from quadloci import cli

# the (r, s, a) triples of `moduli slope --custom` that are replayed
CUSTOM_SLOPES = ((7, 3, 4), (4, 2, 3), (6, 3, 5), (8, 4, 7),
                 (10, 5, 9), (11, 4, 5), (3, 1, 1), (5, 1, 1))


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


def answer(argv):
    """(exit code, stdout) of one request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main():
    entries = []
    for argv in requests():
        code, stdout = answer(argv)
        entries.append({"argv": argv, "exit": code, "stdout": stdout})
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "moduli_documents.json")
    with open(path, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print("%d documents written to %s" % (len(entries), path))


if __name__ == "__main__":
    main()
