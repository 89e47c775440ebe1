"""The benchmark workloads: the inputs a seed gives, and the rules that
decide whether a call failed.

A *unit* is one pass over a workload's inputs; a run repeats the unit a
number of times fixed by ``--seconds`` (see ``units_for``).  This module only
builds inputs and never imports the library, so the orchestrator can use it
without paying the library's import.
"""

from __future__ import annotations

import json
import random
from math import comb
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("cli", "verify")

# About the seconds one unit of each workload takes at the seed commit on a
# 2-core box (Python 3.11.7, Fraction backend); a shared host measured
# 3.4-4.2 s for cli and 13-17 s for verify.  A run makes
# max(1, seconds // UNIT_SECONDS) units, so the work in a run depends on
# --seconds only, never on how fast the program is: both sides of a
# comparison make the same calls.
UNIT_SECONDS = {"cli": 3.7, "verify": 13.0}

# Worker processes each workload may use; only the acceptance command forks.
JOBS = {"cli": 1, "verify": 2}

VERIFY_MAX_E = 4
VERIFY_SMOKE_MAX_E = 2

CLI_WEIGHTS = ("perfbench/data/weights_a.json", "perfbench/data/weights_b.json")
CLI_CLASSES = (
    "a1 + 2*a2 + 2*a3",
    "(a1 - a2)^3 + a3",
    "a1*a2*a3",
    "2/3*a1^2 - a3",
    "(a1 + a2 + a3)^2",
)

# Requests that exit 2 with a one-line message.
CLI_MALFORMED = [
    ["class", "sigma", "--e", "2"],
    ["class", "sigma", "--e", "3", "--f", "2", "--r", "1", "--method", "closed"],
    ["class", "sigma", "--e", "4", "--f", "5", "--r", "3", "--method", "residue"],
    ["class", "sigma", "--e", "x", "--f", "2", "--r", "1"],
    ["class", "sigma", "--e", "2", "--f", "2", "--r", "1", "--method", "magic"],
    ["class", "pencil", "--e", "1"],
    ["class", "pencil"],
    ["class", "projectivize", "--class", "a1 +", "--weights", CLI_WEIGHTS[0]],
    ["class", "projectivize", "--class", "frob + 1", "--weights", CLI_WEIGHTS[0]],
    ["class", "projectivize", "--class", "a1", "--weights", "perfbench/data/absent.json"],
    ["moduli", "petri", "--g", "2"],
    ["moduli", "petri"],
    ["moduli", "petri", "--g", "x"],
    ["moduli", "slope", "--custom", "--r", "5", "--s", "2", "--a", "3"],
    ["moduli", "slope", "--series", "3", "--ell", "1"],
    ["moduli", "slope", "--custom", "--r", "7", "--s", "3", "--a", "x"],
    ["k3", "kosz", "--i", "0"],
    ["k3"],
    ["bogus"],
    ["hurwitz", "--k", "x"],
]

# Known defects at the seed commit.  They stay in the mix and count in
# failed_frac: an uncaught exception (hurwitz --k 3, k3 rank4 --g 2, slope
# without --ell) or exit 2 with no message (slope --custom missing values).
CLI_KNOWN_DEFECTS = [
    ["hurwitz", "--k", "3"],
    ["k3", "rank4", "--g", "2"],
    ["moduli", "slope", "--series", "1"],
    ["moduli", "slope", "--series", "2"],
    ["moduli", "slope", "--series", "1", "--form", "deficit"],
    ["moduli", "slope", "--custom"],
    ["moduli", "slope", "--custom", "--r", "7"],
    ["moduli", "slope", "--custom", "--r", "7", "--s", "3"],
    ["moduli", "slope", "--custom", "--s", "3", "--a", "4"],
    ["moduli", "slope", "--custom", "--r", "7", "--a", "4"],
]


def divisorial_pairs(max_e: int):
    """(e, r) with r >= 1 whose divisorial f = C(e+1,2) - C(r+1,2) is >= 1."""
    return [
        (e, r)
        for e in range(2, max_e + 1)
        for r in range(1, e + 1)
        if comb(e + 1, 2) - comb(r + 1, 2) >= 1
    ]


def cli_families(smoke: bool = False):
    """(family, grid of argv lists) for each README command.

    The mix follows one rule: every unit makes each request of every grid
    exactly once, so a family's share is its grid's size, and the seed sets
    only the order.  No record of real usage backs these shares.  The
    malformed and known-defect grids are part of the same rule, which fixes
    their shares at 20 and 10 of the unit's requests.  The smoke mode keeps
    the first three requests of each grid.

    Left out on purpose: `class sigma --method localization`, so no
    localization runs here, and in particular the unbounded
    `class sigma --e 9 --f 1 --r 9` (45*44 fixed-point pairs, each |W|^2
    work per sample point; killed after 20 s), which no run could finish.
    """
    sigma = [
        ["class", "sigma", "--e", str(e), "--f", str(comb(e + 1, 2) - comb(r + 1, 2)),
         "--r", str(r), "--method", method, "--basis", basis]
        for e, r in divisorial_pairs(3 if smoke else 5)
        for method in ("closed", "residue")
        for basis in ("chern", "roots")
    ]
    projectivize = []
    for cls in CLI_CLASSES:
        for path, n_weights in zip(CLI_WEIGHTS, (2, 3)):
            projectivize.append(["class", "projectivize", "--class", cls, "--weights", path])
            for j in range(n_weights):
                projectivize.append(
                    ["class", "projectivize", "--class", cls, "--weights", path,
                     "--fixed-point", str(j)]
                )
    families = [
        ("moduli petri", [["moduli", "petri", "--g", str(g)] for g in range(4, 28)]),
        ("moduli slope", [
            ["moduli", "slope", "--series", str(s), "--ell", str(ell), "--form", form]
            for s in (1, 2) for ell in range(1, 7) for form in ("closed", "deficit")
        ]),
        ("moduli slope --custom", [
            ["moduli", "slope", "--custom", "--r", str(r), "--s", str(s), "--a", str(a)]
            for r, s, a in ((7, 3, 4), (4, 2, 3), (6, 3, 5), (8, 4, 7),
                            (10, 5, 9), (11, 4, 5), (3, 1, 1), (5, 1, 1))
        ]),
        ("moduli dp12", [["moduli", "dp12"]]),
        ("k3 rank4", [["k3", "rank4"]] + [["k3", "rank4", "--g", str(g)] for g in range(3, 22)]),
        ("k3 kosz", [["k3", "kosz"]] + [["k3", "kosz", "--i", str(i)] for i in range(1, 12)]),
        ("hurwitz", [["hurwitz"]] + [["hurwitz", "--k", str(k)] for k in range(4, 15)]),
        ("class pencil", [
            ["class", "pencil", "--e", str(e), "--presentation", p]
            for e in range(2, 9) for p in ("sub", "quot")
        ]),
        ("class projectivize", projectivize),
        ("class sigma", sigma),
        ("malformed", CLI_MALFORMED),
        ("known defect", CLI_KNOWN_DEFECTS),
    ]
    if smoke:
        families = [(name, grid[:3]) for name, grid in families]
    return families


def cli_universe():
    """Every request any seed can generate; the reference covers all of them."""
    seen, out = set(), []
    for _, grid in cli_families():
        for argv in grid:
            key = tuple(argv)
            if key not in seen:
                seen.add(key)
                out.append(argv)
    return out


def _cli_unit(rng: random.Random, smoke: bool):
    requests = [argv for _, grid in cli_families(smoke) for argv in grid]
    rng.shuffle(requests)
    return [("cli", *argv) for argv in requests]


def unit_calls(workload: str, seed: int, unit: int, smoke: bool = False, serial: bool = False):
    """The calls of one unit: ("cli", *argv) requests, or one
    ("verify", max_e, jobs) call.  Only the cli mix depends on the seed.
    ``serial`` makes verify run with jobs=1, so no work leaves the process."""
    if workload == "cli":
        return _cli_unit(random.Random(seed * 1000003 + unit), smoke)
    if workload == "verify":
        jobs = 1 if serial else JOBS["verify"]
        return [("verify", VERIFY_SMOKE_MAX_E if smoke else VERIFY_MAX_E, jobs)]
    raise ValueError("unknown workload %r" % workload)


def units_for(workload: str, seconds: int, smoke: bool = False) -> int:
    if smoke:
        return 1
    return max(1, int(seconds // UNIT_SECONDS[workload]))


def call_key(call) -> str:
    return json.dumps(list(call))


def cli_outcome(code, raised: bool, stderr: str) -> str:
    """Classify one CLI request: "ok" (exit 0), "usage" (exit 2 with a
    one-line message), "exit1" (verification failure) or "failed".

    A request fails when it raises an uncaught exception, exits with a code
    other than 0, 1 or 2, or exits 2 without a message.
    """
    if raised or code not in (0, 1, 2):
        return "failed"
    if code == 2:
        lines = [line for line in stderr.splitlines() if line.strip()]
        return "usage" if lines and "error" in lines[-1] else "failed"
    return "ok" if code == 0 else "exit1"


def tail(samples):
    """(value, percentile, n): the highest nearest-rank percentile that still
    has at least 10 samples beyond it; the maximum when n <= 10."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n
