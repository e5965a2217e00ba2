"""Exit codes and output formats of the command line front end."""

import json
import os
import subprocess
import sys

import pytest

from hypcensus import census
from hypcensus import oracle as oc
from hypcensus.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hyp_json_decimal_strings(capsys):
    code, out, _ = run(capsys, "hyp", "--g", "2", "--q", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    row = payload["results"][0]
    assert row["hyp"] == "69"
    assert row["sd"] == "7"
    assert isinstance(row["hyp"], str)


def test_invalid_q_exits_2(capsys):
    code, _, err = run(capsys, "hyp", "--g", "2", "--q", "4")
    assert code == 2
    assert "odd prime power" in err
    assert run(capsys, "hyp", "--g", "2")[0] == 2
    assert run(capsys, "hyp", "--g", "2", "--q", "3", "--p", "3")[0] == 2


def test_non_prime_p_exits_2(capsys):
    for p in ("9", "15", "1"):
        code, out, err = run(capsys, "hyp", "--g", "2", "--p", p)
        assert code == 2
        assert out == ""
        assert "error" in err


def test_p_e_selects_extension_field(capsys):
    code, out, _ = run(capsys, "sd", "--g", "2", "--p", "3", "--e", "2")
    assert code == 0
    assert out.strip() == f"g=2 q=9 sd={census.sd(2, 9)}"


def test_rows_sorted_by_g_then_q(capsys):
    code, out, _ = run(capsys, "sd", "--g", "2..3", "--q", "5,3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["g,q,sd", "2,3,7", "2,5,27", "3,3,12", "3,5,0"]


def test_table_markdown_full_range(capsys):
    code, out, _ = run(capsys, "table", "--format", "markdown")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11  # header, rule, nine genus rows
    assert lines[2].startswith("| 2 | 2q^3 + q^2 + 2q - 2")


def test_table_compare_clean_row(capsys):
    code, out, _ = run(capsys, "table", "--g", "2", "--which", "sd",
                       "--compare-paper")
    assert code == 0
    assert "matches the formula at all q <= 499" in out


def test_table_compare_flags_genus9(capsys):
    code, out, _ = run(capsys, "table", "--g", "9", "--which", "hyp",
                       "--compare-paper")
    assert code == 0
    assert "differs at 53 prime powers" in out
    assert "#   q=5: row=" in out


def test_table_rejects_unknown_genus(capsys):
    assert run(capsys, "table", "--g", "11")[0] == 2


def test_symbolic_frozen_sd2(capsys):
    code, out, _ = run(capsys, "symbolic", "--g", "2", "--which", "sd")
    assert code == 0
    assert out.strip() == (
        "sd(2) = q^2 - 2  +  [2]_{q = 2 (mod 3)}  +  [2]_{q = 5,7 (mod 8)}"
    )


def test_oracle_agreement(capsys):
    code, out, _ = run(capsys, "oracle", "--g", "2", "--q", "3",
                       "--method", "both")
    assert code == 0
    assert "AGREES" in out
    assert "orbit_hyp=69" in out
    assert "burnside_hyp=69" in out


def test_oracle_budget_refusal(capsys):
    code, _, err = run(capsys, "oracle", "--g", "5", "--q", "9")
    assert code == 2
    assert "refused" in err


def test_oracle_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(census, "hyp", lambda g, q: 999)
    code, out, err = run(capsys, "oracle", "--g", "2", "--q", "3",
                         "--method", "orbit")
    assert code == 1
    assert "MISMATCH" in out
    assert "counterexamples:" in err


def test_oracle_engine_check_exits_1(capsys, monkeypatch):
    # a corrupted flip mask fails the generator cross-check in Burnside
    dest_flip = oc.ActionState.dest_flip

    def corrupt(self, mat):
        dest, flip = dest_flip(self, mat)
        return dest, ~flip

    monkeypatch.setattr(oc.ActionState, "dest_flip", corrupt)
    code, out, err = run(capsys, "oracle", "--g", "2", "--q", "3",
                         "--method", "burnside")
    assert code == 1
    assert out == ""
    assert "verification failed" in err


def _run_optimized(*argv):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.normpath(src))
    return subprocess.run([sys.executable, "-O", *argv], capture_output=True,
                          text=True, env=env, timeout=300)


def test_checks_survive_python_O():
    res = _run_optimized(
        "-c",
        "from fractions import Fraction\n"
        "from hypcensus.census import _exact_int\n"
        "_exact_int(Fraction(1, 2))",
    )
    assert res.returncode == 1
    assert "VerificationError: non-integer value 1/2" in res.stderr
    res = _run_optimized("-m", "hypcensus", "oracle", "--g", "2", "--q", "3",
                         "--method", "both")
    assert res.returncode == 0, res.stderr
    assert "AGREES" in res.stdout


def test_suite_checks_survive_python_O():
    # a wrong closed form must fail the eps suite even with asserts compiled out
    res = _run_optimized(
        "-c",
        "from hypcensus import multiplier, oracle\n"
        "multiplier.epsilon_closed_form = lambda gamma, s, ctx: 1\n"
        "print(oracle.verify_epsilon(qs=(3,), ns_list=(4,)))",
    )
    assert res.returncode != 0, res.stdout
    assert "VerificationError: eps: engine == sweep == closed form" in res.stderr


def test_argument_checks_survive_python_O():
    # an element that does not fix the set is a bad argument to the closed
    # form: ValueError (exit 2 in the CLI), not a silent answer
    res = _run_optimized(
        "-c",
        "from hypcensus import field, moebius, multiplier, nset\n"
        "k = field.make_field(3, 1)\n"
        "e = moebius.classify(k, moebius.GlMatrix(1, 1, 0, 1))\n"
        "s = nset.points_to_nset(k, [moebius.fin(0), moebius.fin(1)])\n"
        "print(multiplier.epsilon_closed_form(e, s, k))",
    )
    assert res.returncode == 1, res.stdout
    assert "ValueError: closed form requires gamma S = S" in res.stderr


def test_census_checks_survive_python_O():
    # an sd one too large makes hyp + sd odd; the parity and exactness
    # checks must still fail with asserts compiled out
    res = _run_optimized(
        "-c",
        "from hypcensus import census, symbolic\n"
        "sd = census.sd\n"
        "census.sd = lambda g, q: sd(g, q) + 1\n"
        "for fn, args in ((census.census_report, (2, 3)), (census.y_nset_classes, (2, 3)),\n"
        "                 (symbolic.poly_divexact, ((1, 1, 1), (1, 1)))):\n"
        "    try:\n"
        "        fn(*args)\n"
        "    except census.VerificationError as exc:\n"
        "        print('raised', exc)\n"
        "    else:\n"
        "        print('passed')\n",
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["raised"] * 3, res.stdout
    assert lines[0] == "raised hyp + sd = 77 is odd at g=2, q=3"


def test_verify_suite_runs(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "norm", "--q", "3,5")
    assert code == 0
    assert "32 checks ok" in out
    code, out, _ = run(capsys, "verify", "--suite", "quot", "--q", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["suite"] == "quot"


def test_verify_failure_exits_1(capsys, monkeypatch):
    def boom(**kwargs):
        raise AssertionError(3, "C", 2)

    monkeypatch.setitem(oc.SUITES, "norm", boom)
    code, _, err = run(capsys, "verify", "--suite", "norm")
    assert code == 1
    assert "counterexample" in err


def test_verify_wrong_option_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "cocycle", "--q", "3,5")
    assert code == 2
    assert "error" in err


def test_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
