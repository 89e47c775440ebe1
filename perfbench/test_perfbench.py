"""The benchmark's own tests: a smoke run of every workload in both modes,
and the rules the metrics rest on.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from run import END_TO_END
from tracer import PER_LAYER, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_benchmark_json_lists_what_the_runs_report():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    out = _run(ROOT, "--smoke", "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    kind = "end_to_end" if trace == "0" else "per_layer"
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in _spec()[kind]
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in res["metrics"].values())
    defects = {tuple(argv) for argv in workloads.CLI_KNOWN_DEFECTS}
    expected_failed = sum(1 for call in workloads.unit_calls(workload, 7, 0, smoke=True)
                          if call[0] == "cli" and tuple(call[1:]) in defects)
    assert res["failed"] == expected_failed


def test_cli_mix_is_fixed_and_seeded():
    a = workloads.unit_calls("cli", 3, 0)
    assert a == workloads.unit_calls("cli", 3, 0)
    b = workloads.unit_calls("cli", 4, 0)
    assert a != b
    # every grid entry once per unit: the seed sets only the order
    assert sorted(a) == sorted(b)
    assert len(a) == len(set(a)) == 220
    defects = {tuple(argv) for argv in workloads.CLI_KNOWN_DEFECTS}
    assert sum(1 for call in a if tuple(call[1:]) in defects) == 10
    universe = {tuple(argv) for argv in workloads.cli_universe()}
    assert {tuple(call[1:]) for call in a} == universe


def test_verify_crash_is_a_wrong_answer(monkeypatch, capsys):
    """A run_all that raises must fail the run, not end it early as a fast one."""
    import run
    import worker

    def boom(**kwargs):
        raise RuntimeError("broken build")

    def in_process(self, workload, mode, units=1, serial=False):
        argv = ["--workload", workload, "--seed", str(self.args.seed), "--units", str(units),
                "--mode", mode, "--smoke"] + (["--serial"] if serial else [])
        assert worker.main(argv) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    monkeypatch.setattr(worker.verify, "run_all", boom)
    monkeypatch.setattr(run.Runner, "worker", in_process)
    for trace in ("0", "1"):
        assert run.main(["--smoke", "--workload", "verify", "--seed", "1", "--seconds", "1",
                         "--trace", trace]) == 1
        res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert res["correct"] is False and res["failed"] >= 1


def test_cli_outcome_rule():
    assert workloads.cli_outcome(0, False, "") == "ok"
    assert workloads.cli_outcome(2, False, "usage: quadloci\nquadloci: error: bad") == "usage"
    assert workloads.cli_outcome(2, False, "error: need g >= 4\n") == "usage"
    assert workloads.cli_outcome(2, False, "") == "failed"
    assert workloads.cli_outcome(None, True, "TypeError: x") == "failed"
    assert workloads.cli_outcome(3, False, "error: x") == "failed"
    assert workloads.cli_outcome(1, False, "") == "exit1"


def test_tail_percentile():
    assert workloads.tail(list(range(400))) == (389, 97.5, 400)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_and_recursion():
    t = Tracer()
    # (id, parent, name, start, end, call, outermost); children end first
    t.spans = [
        (3, 2, "symfunc.a_const", 1.5, 2.0, 0, False),
        (2, 1, "symfunc.a_const", 1.0, 3.0, 0, True),
        (4, 1, "algebra.symmetric_reduce", 3.0, 4.0, 0, True),
        (1, 0, "loci.localization_class", 0.0, 5.0, 0, True),
    ]
    m = t.layer_metrics()
    assert m["loci.localization_class.self_s"] == 2.0
    assert m["loci.localization_class.s"] == 5.0
    assert m["symfunc.a_const.calls"] == 2
    assert m["symfunc.a_const.s"] == 2.0  # the nested call is inside the outer one


def test_install_rebinds_every_copy():
    sys.path.insert(0, str(ROOT / "src"))
    from quadloci import algebra, loci

    before = (loci.symmetric_reduce, algebra.Polynomial.__mul__)
    t = Tracer()
    t.install()
    try:
        assert loci.symmetric_reduce is not before[0]
        assert algebra.Polynomial.__rmul__ is algebra.Polynomial.__mul__ is not before[1]
        loci.to_chern_symbols(loci.localization_class(2, 2, 1), 2, 2)
    finally:
        t.uninstall()
    assert (loci.symmetric_reduce, algebra.Polynomial.__mul__) == before
    names = {span[2] for span in t.spans}
    assert {"loci.localization_class", "loci.to_chern_symbols",
            "algebra.symmetric_reduce", "algebra.Polynomial.__mul__"} <= names
    assert t.counts["loci.fp_pairs"] == 3  # C(3, 1) * 1 for (e, f) = (2, 2)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
