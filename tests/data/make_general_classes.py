"""Write general_classes.json: the Chern-form class of every localization
triple (e, f, r) with e <= 7 whose largest block has at most 150 unknowns
(the monomials of the class degree in the c_iE, the size of the largest
system of the former interpolation solver).  Each class comes from
`localization_class`, which returns `residue_class`'s answer only after the
independent `resolution_value` has matched it at seeded points.

    PYTHONPATH=src python tests/data/make_general_classes.py
"""

import json
import os
from math import comb

from quadloci import loci
from quadloci.cli import poly_document

MAX_E, MAX_BLOCK = 7, 150


def partitions(total, largest):
    """The partitions of `total` into parts <= `largest`."""
    if total == 0:
        return [()]
    return [(part,) + rest
            for part in range(min(total, largest), 0, -1)
            for rest in partitions(total - part, part)]


def triples():
    """(e, f, r, largest block) over localization's domain, in order."""
    for e in range(1, MAX_E + 1):
        n = comb(e + 1, 2)
        for r in range(1, e + 1):
            for d in range(1, min(comb(r + 1, 2), n - 1) + 1):
                f = n - d
                block = len(partitions(loci.target_degree(e, f, r), e))
                if block <= MAX_BLOCK:
                    yield e, f, r, block


def main():
    entries = []
    for e, f, r, block in triples():
        doc = poly_document(loci.localization_class(e, f, r), "class sigma", {})
        entries.append({"e": e, "f": f, "r": r, "largest_block": block,
                        "class": doc["coefficients"]})
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "general_classes.json")
    with open(path, "w") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d classes written to %s" % (len(entries), path))


if __name__ == "__main__":
    main()
