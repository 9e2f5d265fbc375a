"""Command-line verbs, exit codes, and output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fflv
from fflv.characters import qchar_polytope
from fflv.cli import main
from fflv.marked_poset import n1_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_points_count(capsys):
    code, out, _ = run(capsys, "points", "--family", "odd", "--n", "2",
                       "--weight", "0,1", "--count")
    assert code == 0
    assert out == "9\n"


def test_points_jsonlines(capsys):
    code, out, _ = run(capsys, "points", "--family", "odd", "--n", "1",
                       "--weight", "1")
    assert code == 0
    assert out == "[0, 0]\n[0, 1]\n[1, 0]\n"


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "--family", "odd", "--n", "2",
                       "--weight", "1,1")
    assert code == 0
    assert out == "35\n"


def test_paths_count(capsys):
    code, out, _ = run(capsys, "paths", "--family", "even", "--n", "3",
                       "--count")
    assert code == 0
    assert out == "12\n"


def test_char_json(capsys):
    code, out, _ = run(capsys, "char", "--family", "odd", "--n", "1",
                       "--weight", "1")
    assert code == 0
    assert json.loads(out) == qchar_polytope("odd", 1, (1,)).to_json()


def test_ineq_text(capsys):
    code, out, _ = run(capsys, "ineq", "--family", "even", "--n", "2",
                       "--weight", "1,1", "--format", "text")
    assert code == 0
    assert set(out.splitlines()) == {
        "s(1,1) <= 1",
        "s(2,2bar) <= 1",
        "s(1,1) + s(1,2bar) + s(1,1bar) <= 2",
        "s(1,1) + s(1,2bar) + s(2,2bar) <= 2",
    }


def test_ehrhart_csv(capsys):
    code, out, _ = run(capsys, "ehrhart", "--family", "odd", "--n", "1",
                       "--weight", "1", "--t-max", "3", "--format", "csv")
    assert code == 0
    assert out == "t,count\n0,1\n1,3\n2,6\n3,10\n"


def test_transfer(capsys):
    code, out, _ = run(capsys, "transfer", "--family", "odd", "--n", "1",
                       "--weight", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["order_points"] == 6
    assert payload["chain_points"] == 6
    assert payload["bijective"] is True


def test_poset_json(capsys):
    code, out, _ = run(capsys, "poset", "--family", "odd", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["elements"]) == 6
    assert len(payload["covers"]) == 6


def test_verify_minkowski(capsys):
    code, out, _ = run(capsys, "verify", "minkowski", "--family", "odd",
                       "--n", "1", "--max-coeff", "2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "target", "instances", "failures", "status", "counterexample",
    }
    assert payload["status"] == "pass"
    assert payload["instances"] == 6
    assert payload["counterexample"] is None


def test_verify_slice(capsys):
    code, out, _ = run(capsys, "verify", "slice", "--n", "1",
                       "--max-coeff", "2")
    assert code == 0
    assert json.loads(out)["instances"] == 3


def test_verify_straightening(capsys):
    code, out, _ = run(capsys, "verify", "straightening", "--n", "1",
                       "--max-coeff", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["instances"] == 9


def test_verify_qchar_reports_failure(capsys):
    code, out, _ = run(capsys, "verify", "qchar", "--n", "2",
                       "--max-coeff", "1")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["failures"] == 1
    assert payload["instances"] == 2
    assert payload["counterexample"]["weight"] == [0, 1]
    assert payload["counterexample"]["polytope"] != payload["counterexample"]["branching"]


def test_verify_qchar_rank1_passes(capsys):
    code, out, _ = run(capsys, "verify", "qchar", "--n", "1",
                       "--max-coeff", "2")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_n1(capsys):
    code, out, _ = run(capsys, "verify", "n1-formula", "--max-k", "3",
                       "--max-coeff", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    report = n1_report(3, 2)
    assert payload["instances"] == sum(r["checked"] for r in report["results"])


def test_n1_text(capsys):
    code, out, _ = run(capsys, "n1", "--max-k", "3", "--max-coeff", "1",
                       "--format", "text")
    assert code == 0
    assert out.splitlines()[-1] == "passing: row1_end"


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["points", "--family", "odd", "--n", "2", "--weight", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["points", "--family", "huge", "--n", "2", "--weight", "1,1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_empty_sweeps_are_usage_errors(capsys):
    # Bounds that leave nothing to check must not report a pass.
    for argv in (
        ["verify", "slice", "--n", "2", "--max-coeff", "-1"],
        ["verify", "n1-formula", "--max-k", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be at least" in err


def test_library_errors_exit_2(capsys):
    code, _, err = run(capsys, "points", "--family", "odd", "--n", "2",
                       "--weight", "1")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "char", "--family", "even", "--n", "2",
                       "--weight", "1,1", "--method", "branching")
    assert code == 2
    assert "odd" in err


def test_deterministic_output(capsys):
    first = run(capsys, "points", "--family", "odd", "--n", "2",
                "--weight", "1,1")
    second = run(capsys, "points", "--family", "odd", "--n", "2",
                 "--weight", "1,1")
    assert first == second
    first = run(capsys, "char", "--family", "even", "--n", "2",
                "--weight", "2,1")
    second = run(capsys, "char", "--family", "even", "--n", "2",
                 "--weight", "2,1")
    assert first == second


def test_module_entry_point():
    # The child imports the same fflv as this test, also when only pytest's
    # pythonpath setting (not the environment) puts src on the path.
    src = str(Path(fflv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "fflv.cli", "paths", "--family", "odd",
         "--n", "2", "--count"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7"
