"""Command-line verbs, exit codes, and output determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fflv
from fflv import cli, marked_poset, polytope
from fflv.characters import GradedCharacter, dim, qchar_branching, qchar_polytope
from fflv.cli import main
from fflv.marked_poset import n1_report
from fflv.polytope import Counterexample


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
    assert run(capsys, "dim", "--family", "even", "--n", "2", "--weight", "1,1",
               "--method", "weyl") == (0, "16\n", "")
    code, out, err = run(capsys, "dim", "--family", "odd", "--n", "2",
                         "--weight", "1,1", "--method", "weyl")
    assert (code, out) == (2, "")
    assert err == "error: the Weyl formula applies to the even family\n"


def test_counts_are_not_graded(capsys, monkeypatch):
    # points --count and dim --method polytope count on the plain frontier
    # DP; characters.dim sums the graded map, which they never build.
    def graded(*args):
        raise AssertionError("a count built the graded map")

    cases = [("odd", 2, (1, 1)), ("even", 3, (1, 0, 2)), ("odd", 1, (0,))]
    with monkeypatch.context() as m:
        m.setattr(polytope, "_graded_count", graded)
        outs = []
        for family, n, weight in cases + [("odd", 5, (1,) * 5)]:
            argv = ("--family", family, "--n", str(n),
                    "--weight", ",".join(map(str, weight)))
            code, out, _ = run(capsys, "points", *argv, "--count")
            assert code == 0
            assert run(capsys, "dim", *argv, "--method", "polytope") == (0, out, "")
            outs.append(int(out))
    assert outs[:-1] == [dim(family, n, weight) for family, n, weight in cases]
    assert outs[-1] == dim("odd", 5, (1,) * 5, "branching") == 217965891


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


def test_text_and_csv_formats(capsys):
    assert run(capsys, "poset", "--family", "even", "--n", "2",
               "--format", "text") == (0, (
        "(1,1)\n(1,2bar)\n(1,1bar)\n(2,2bar)\n"
        "(1,1) -> (1,2bar)\n(1,2bar) -> (1,1bar)\n(1,2bar) -> (2,2bar)\n"), "")
    assert run(capsys, "paths", "--family", "odd", "--n", "1",
               "--format", "text") == (0, "(1,1)\n(1,1) (1,1bar)\n", "")
    assert run(capsys, "paths", "--family", "odd", "--n", "1") == (0, (
        '[[{"row": 1, "col": "1"}], '
        '[{"row": 1, "col": "1"}, {"row": 1, "col": "1bar"}]]\n'), "")
    assert run(capsys, "points", "--family", "odd", "--n", "1", "--weight", "1",
               "--format", "csv") == (0, "0,0\n0,1\n1,0\n", "")


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


def test_transfer_computes_each_point_set_once(capsys, monkeypatch):
    calls = []
    for name in ("order_points", "chain_points"):
        real = getattr(marked_poset, name)
        monkeypatch.setattr(
            marked_poset, name,
            lambda poset, name=name, real=real: calls.append(name) or real(poset))
    argv = ("transfer", "--family", "odd", "--n", "2", "--weight", "1,1")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert sorted(calls) == ["chain_points", "order_points"]
    assert out == ('{"family": "odd", "n": 2, "weight": [1, 1], '
                   '"order_points": 35, "chain_points": 35, "bijective": true}\n')
    monkeypatch.setattr(marked_poset, "check_transfer",
                        lambda *args: Counterexample("transfer_not_injective", (0,)))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["bijective"] is False


# SHA-256 of stdout, recorded before characters and dimensions (and with
# them `points --count`) moved from enumeration to the graded count, the
# `transfer` and `verify abs` digests before `MarkedPoset` moved to its index
# form, and the `ineq`, `n1`, `verify slice`, `verify n1-formula` and even
# `verify abs` digests before the slack search took coordinate-tuple rows and
# the extremes check moved into the `MarkedPoset` constructor; every command
# exits 0.
PINNED_OUTPUT_SHA256 = [
    ("char --family odd --n 3 --weight 2,2,1",
     "e3b36003691605c94d7d6ca08446b7d07943826f0c5f32cb716b29b2897e283b"),
    ("char --family odd --n 3 --weight 2,2,1 --method branching",
     "824cca4e12837430f1b4003ff0afe1d3d86343c9ab2604186112346927f1f67d"),
    ("char --family even --n 2 --weight 2,1",
     "3b4519279965655d6dffaa0f27599a28b3bca3faf5ce5fbed1c790e241172271"),
    ("char --family odd --n 1 --weight 3",
     "a4c9b70220fd2b8fbfa7321fa908bba233dda9eacd8227d0e2f922aa40859adf"),
    ("char --family odd --n 2 --weight 0,0",
     "9d6c66d027234bf6e5b3aa3ec7e897447ec4d84f765d7f929cb7bf6309a771c0"),
    ("char --family even --n 3 --weight 1,0,1",
     "b68a2fa64ed977b9e49733a7786d7601c0399358420fa604504ad0b2a94265e7"),
    ("char --family odd --n 2 --weight 2,1 --method branching",
     "1111535071d722993b73f072079894bc3d6d74d84248c7275b96c4c8fc592070"),
    ("dim --family odd --n 3 --weight 2,2,1",
     "3d95ab770218af8720643bc3dd59c133984382d0be879b5370dd4cc0220ece11"),
    ("dim --family even --n 2 --weight 2,1",
     "90d7ec0f0acef104d8b6252794295f661a0149634868d02a1ae0c358099638f5"),
    ("dim --family odd --n 4 --weight 1,1,1,1",
     "0452570a214640121ba0b60175f63b0afb573705dbb4561add34a202e53806ed"),
    ("dim --family even --n 4 --weight 0,1,0,1",
     "5ba0770fd80a0745fc6cda66b76c71ba98663c16b7266f733a1b8a0cd2ab7e46"),
    ("ehrhart --family odd --n 2 --weight 1,1 --t-max 4",
     "95f3adcee1c3acbe6dfa134ef78addac8863fd0cb725e27f069aac767c2b15be"),
    ("ehrhart --family even --n 2 --weight 2,1 --t-max 3 --format csv",
     "bf98da820fb5b79d7829b195e5f1709c242e7cb6019c345655a7872c831bcb40"),
    ("ehrhart --family odd --n 1 --weight 0 --t-max 2",
     "1139e392d1548d01cc4476279b142fcefbb5bb0fbfbeb29a7e09b508b0288031"),
    ("points --family odd --n 3 --weight 2,2,1 --count",
     "3d95ab770218af8720643bc3dd59c133984382d0be879b5370dd4cc0220ece11"),
    ("points --family odd --n 1 --weight 0 --count",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("transfer --family odd --n 2 --weight 1,1",
     "28290496720ba9e9caab174d6479d41eea693c2a8127efbed4ac9f61d7dbfeca"),
    ("transfer --family even --n 3 --weight 1,0,1",
     "85773454c02bd7e5dd682f595eccf973907ac5bcd369ca19bdc896392c1b2ddf"),
    ("verify abs --family odd --n 3 --max-coeff 1",
     "10c3c0d0a70ca3b56ae7dac67a76a4d20bac86896669a915d2be64ed4bc98472"),
    ("verify abs --family even --n 2 --max-coeff 2",
     "86b05c4bce8e269243620b44421e7dfeac7a8f9637d6c4751449b7b99340ea68"),
    ("ineq --family odd --n 3 --weight 1,0,1",
     "253dde88f39289c4b1bb1f9ee3df75e052211351b4229a67079a9f0d36351e9f"),
    ("ineq --family even --n 2 --weight 1,1 --format text",
     "6d52ab3d8a84296a8e5e088e63d31d613b76f0badb58d01f0daf8d4e262df4d1"),
    ("verify slice --n 2 --max-coeff 2",
     "818e73c9963aaa83985396179f463a2fca67b38a90654a023a4a6d9537ea5f2c"),
    ("n1 --max-k 4 --max-coeff 3",
     "b847a4fb3c876cea273a529914177cace3681964ee5c2763685c7318d38f4fbb"),
    ("n1 --max-k 4 --max-coeff 3 --format text",
     "e5a302e5e0bf94db719d815e57e9c9eb7ddfb754dfe416c1b700c7a511030170"),
    ("verify n1-formula --max-k 4 --max-coeff 3",
     "47b2e4a5041d906c0c78a9f7d796aa87f6fcb49d05f6971d3c0fc9244ea3c9e8"),
]


@pytest.mark.parametrize("command, digest", PINNED_OUTPUT_SHA256)
def test_counting_verbs_output_pinned(capsys, command, digest):
    """char, dim, ehrhart, points --count, transfer, ineq, n1 and verify
    abs, slice and n1-formula stay byte-identical."""
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `--help` at 80 columns, the same on Python 3.10 to 3.13.
PINNED_HELP_SHA256 = [
    ("", "d90b100caed18e3aae56940c5bc77d5cb341c027f67cb25afa25dd786591c5ca"),
    ("poset", "348b5bdc2c2c3e37d9538ebb06197a1384b35af5db1b345557401e8ff9108cc2"),
    ("paths", "d87ee303161a9328aa8a68aeceb60cb8cb20687016afa5dc86556bfff024f087"),
    ("ineq", "9d4a131f7f6db3c7d2702616e2da3398b571d5311e3f1a4dd85a8d2f0a3be88b"),
    ("points", "310e05c169e5ef11085dfdb2434e915dd0de15ca56d99200c7e2e449bd505450"),
    ("char", "fd71a82d835b4f6e5394cb1cd9214491ae1a663eab47598d39c2e09f3fa784eb"),
    ("dim", "583023130be74784c776b8a71d1b4fb51f43bfebfbb7d75801b8a4bc99c2d7a9"),
    ("ehrhart", "ab61aa9a925ec9fef41c936c234eae583248f7972878c98b4cf09edfce12a364"),
    ("transfer", "72c8a32fb417b74511d70ae4b17529489af13e9354061be88bfb4c65a16d1671"),
    ("n1", "3795d1b436fee818a043f85e41d7f2d673aeb0df922a4bd86a44622281fd94d3"),
    ("verify", "ee8e659fb156af801e18f9273fe7e0949a10d9604c2e6d0f40798808b150a263"),
]


@pytest.mark.parametrize("verb, digest", PINNED_HELP_SHA256)
def test_help_text_pinned(capsys, monkeypatch, verb, digest):
    """The help of the parser and of each verb stays byte-identical."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*verb.split(), "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("argv, instances", [
    ("--n 2 --max-coeff 2", 375),
    ("--n 3 --max-coeff 1", 2090),
])
def test_verify_straightening_output_pinned(capsys, argv, instances):
    code, out, _ = run(capsys, "verify", "straightening", *argv.split())
    assert code == 0
    assert out == (f'{{"target": "straightening", "instances": {instances}, '
                   '"failures": 0, "status": "pass", "counterexample": null}\n')


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


def failing_at(k, failure):
    """A stand-in checker that passes k - 1 calls and returns failure at call k."""
    calls = []

    def check(*args):
        calls.append(args)
        return failure if len(calls) == k else None

    return check


@pytest.mark.parametrize(
    "checker, argv, k, failure, line",
    [
        (
            "fflv.polytope._compare",
            ["minkowski", "--family", "even", "--n", "2", "--max-coeff", "1"],
            3, Counterexample("missing", (1, 0, 2)),
            '{"target": "minkowski", "instances": 3, "failures": 1, '
            '"status": "fail", "counterexample": {"family": "even", '
            '"lambda": [0, 0], "mu": [1, 0], "kind": "missing", '
            '"point": [1, 0, 2]}}',
        ),
        (
            "fflv.marked_poset.abs_verify",
            ["abs", "--family", "odd", "--n", "2", "--max-coeff", "1"],
            3, Counterexample("transfer_not_injective", (2, 1)),
            '{"target": "abs", "instances": 3, "failures": 1, '
            '"status": "fail", "counterexample": {"family": "odd", '
            '"weight": [1, 0], "kind": "transfer_not_injective", '
            '"point": [2, 1]}}',
        ),
        (
            "fflv.polytope.slice_verify",
            ["slice", "--n", "2", "--max-coeff", "2"],
            5, Counterexample("extra", (0, 1, 0, 0, 0, 0)),
            '{"target": "slice", "instances": 5, "failures": 1, '
            '"status": "fail", "counterexample": {"weight": [1, 1], '
            '"kind": "extra", "point": [0, 1, 0, 0, 0, 0]}}',
        ),
        (
            "fflv.straightening.Straightener._check_lead",
            ["straightening", "--n", "2", "--max-coeff", "1"],
            7, Counterexample("term_not_smaller", (0, 0, 1, 0, 0, 1)),
            '{"target": "straightening", "instances": 7, "failures": 1, '
            '"status": "fail", "counterexample": {"path": ["(1,1)", "(1,2)", '
            '"(1,2bar)", "(2,2bar)"], "s": [0, 0, 1, 0, 0, 0], '
            '"kind": "term_not_smaller", "term": [0, 0, 1, 0, 0, 1]}}',
        ),
    ],
)
def test_verify_failure_summaries(capsys, monkeypatch, checker, argv, k,
                                  failure, line):
    # The sweep stops at its first failing instance and reports it whole.
    monkeypatch.setattr(checker, failing_at(k, failure))
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 1
    assert out == line + "\n"


def test_verify_qchar_names_the_least_differing_weight(capsys, monkeypatch):
    # An empty branching character at the third weight differs from the
    # polytope character at all six of its eps-weights.
    calls = []

    def branching(n, weight):
        calls.append(weight)
        return GradedCharacter() if len(calls) == 3 else qchar_branching(n, weight)

    monkeypatch.setattr("fflv.characters.qchar_branching", branching)
    code, out, _ = run(capsys, "verify", "qchar", "--n", "1", "--max-coeff", "2")
    assert code == 1
    assert out == (
        '{"target": "qchar", "instances": 3, "failures": 1, "status": "fail", '
        '"counterexample": {"weight": [2], "eps_weight": [-2, 0], '
        '"polytope": {"2": 1}, "branching": {}}}\n'
    )


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


def test_usage_errors(capsys):
    for argv, message in (
        (["points", "--family", "odd", "--n", "2", "--weight", "x"],
         "argument --weight: weight must be comma-separated integers"),
        (["points", "--family", "huge", "--n", "2", "--weight", "1,1"],
         "argument --family: invalid choice"),
        (["nonsense"], "invalid choice"),
        (["points", "--n", "2", "--weight", "1,-1"],
         "argument --weight: weight entries must be nonnegative"),
        (["points", "--n", "x", "--weight", "1"],
         "argument --n: expected an integer, got 'x'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err


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


def test_rank_below_one_is_a_usage_error(capsys):
    # Checked by the parser, before a sweep can fail on it with a message
    # that does not name the option.
    for argv in (
        ["verify", "minkowski", "--n", "-1"],
        ["verify", "abs", "--n", "0"],
        ["points", "--family", "odd", "--n", "0", "--weight", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--n" in err and "must be at least 1" in err


def test_verify_rejects_an_ignored_family(capsys):
    # These sweeps check the odd family only; a pass for --family even would
    # report a check that was not made.
    for target in ("slice", "qchar", "straightening", "n1-formula"):
        code, out, err = run(capsys, "verify", target, "--family", "even",
                             "--n", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "odd family" in err
        code, out, _ = run(capsys, "verify", target, "--family", "odd",
                           "--n", "1", "--max-coeff", "1", "--max-k", "2")
        assert code == 0
        assert json.loads(out)["status"] == "pass"



def test_verify_straightening_refuses_degrees_past_the_limit(capsys, monkeypatch):
    # The last vectors of the sweep have degree n * max_coeff + 1; past 255
    # the sweep once ran every lower bound and then died with a traceback.
    # Now it is a usage error before any instance runs.
    def no_instance(*args):
        raise AssertionError("an instance ran")

    monkeypatch.setattr("fflv.straightening.Straightener._checked_factors", no_instance)
    for n, max_coeff in ((1, 255), (3, 85), (2, 300)):
        code, out, err = run(capsys, "verify", "straightening", "--n", str(n),
                             "--max-coeff", str(max_coeff))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "255" in err
        assert str(n * max_coeff + 1) in err
    # Degree 255 itself is allowed: the sweep starts.
    monkeypatch.setattr(cli, "straightening_cases", lambda n, max_coeff: iter([None]))
    for n, max_coeff in ((1, 254), (2, 127)):
        code, out, _ = run(capsys, "verify", "straightening", "--n", str(n),
                           "--max-coeff", str(max_coeff))
        assert code == 0
        assert json.loads(out)["instances"] == 1

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


def test_parser_is_built_once_and_reused(capsys):
    # One parser serves every call in a process: repeated calls print the
    # same bytes, and a usage error after a successful call still exits 2.
    assert cli._build_parser() is cli._build_parser()
    argv = ("verify", "minkowski", "--family", "odd", "--n", "1",
            "--max-coeff", "2")
    first = run(capsys, *argv)
    assert first == run(capsys, *argv)
    assert first[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["points", "--family", "odd", "--n", "2", "--weight", "x"])
    assert exc.value.code == 2
    assert "comma-separated integers" in capsys.readouterr().err
    assert run(capsys, *argv) == first


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
