"""Exit codes and output formats of the command line front end."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from hypcensus import census
from hypcensus import field as ff
from hypcensus import moebius as mo
from hypcensus import multiplier as mult
from hypcensus import nset as ns
from hypcensus import oracle as oc
from hypcensus.cli import FORMATS, build_parser, main

import reference as ref


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# sha256 of (argv, exit code, stdout, stderr) for each case below in every
# --format, error exits included
CLI_GOLDEN_DIGEST = "fdd0ac2b62134447a8f57b8733ce79b81568dfc8c5a125605aeffee13cfe57c7"
GOLDEN_ARGV = (
    ("hyp", "--g", "2..3", "--q", "9,3"),
    ("hyp", "--g", "2", "--p", "3", "--e", "2"),
    ("hyp", "--g", "2", "--q", "4"),
    ("hyp", "--g", "1", "--q", "3"),
    ("sd", "--g", "2..3", "--q", "9,3"),
    ("sd", "--g", "3", "--p", "5"),
    ("sd", "--g", "2", "--q", "abc"),
    ("sd", "--g", "1", "--q", "3"),
    ("table", "--g", "2..3"),
    ("table", "--g", "8..9", "--compare-paper"),
    ("table", "--g", "2..10", "--which", "sd", "--compare-paper"),
    ("table", "--g", "2..10", "--which", "hyp", "--compare-paper"),
    ("table", "--g", "11"),
    ("symbolic", "--g", "2..3"),
    ("symbolic", "--g", "2", "--which", "sd"),
    ("symbolic", "--g", "1"),
    ("oracle", "--g", "2", "--q", "3,5"),
    ("oracle", "--g", "2", "--q", "4"),
    ("verify", "--suite", "norm"),
    ("verify", "--suite", "counts", "--q", "15"),
    ("verify", "--suite", "orbit_lemma", "--q", "9"),
)


def test_cli_output_frozen(capsys):
    cases = []
    for fmt in FORMATS:
        for argv in GOLDEN_ARGV:
            argv = [*argv, "--format", fmt]
            cases.append([argv, *run(capsys, *argv)])
    digest = hashlib.sha256(json.dumps(cases).encode()).hexdigest()
    assert digest == CLI_GOLDEN_DIGEST


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


def test_oracle_json_verdict_is_a_boolean(capsys):
    code, out, _ = run(capsys, "oracle", "--g", "2", "--q", "3", "--format", "json")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["agrees"] is True
    assert row["orbit_hyp"] == "69"


def test_oracle_budget_refusal(capsys):
    code, _, err = run(capsys, "oracle", "--g", "5", "--q", "9")
    assert code == 2
    assert "refused" in err


def test_oracle_mismatch_exits_1(capsys, monkeypatch):
    report = census.census_report
    monkeypatch.setattr(census, "census_report",
                        lambda g, q: report(g, q)._replace(hyp=999))
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


def test_oracle_orbit_engine_check_exits_1(capsys, monkeypatch):
    # a corrupted flip mask must not let the orbit census pass either
    dest_flip = oc.ActionState.dest_flip

    def corrupt(self, mat):
        dest, flip = dest_flip(self, mat)
        return dest, ~flip

    monkeypatch.setattr(oc.ActionState, "dest_flip", corrupt)
    code, out, err = run(capsys, "oracle", "--g", "2", "--q", "3",
                         "--method", "orbit")
    assert code == 1
    assert "MISMATCH" in out or "verification failed" in err


TESTS = os.path.dirname(os.path.abspath(__file__))


def _run_optimized(*argv):
    src = os.path.join(TESTS, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.normpath(src))
    return subprocess.run([sys.executable, "-O", *argv], capture_output=True,
                          text=True, env=env, timeout=300)


def test_checks_survive_python_O():
    res = _run_optimized(
        "-c",
        "from hypcensus.census import _exact_div\n"
        "_exact_div(1, 2)",
    )
    assert res.returncode == 1
    assert "VerificationError: non-integer value 1/2" in res.stderr
    res = _run_optimized("-m", "hypcensus", "oracle", "--g", "2", "--q", "3",
                         "--method", "both")
    assert res.returncode == 0, res.stderr
    assert "AGREES" in res.stdout


def test_characteristic_checks_survive_python_O():
    # a p of which q is not a power raises ValueError with asserts compiled out
    for call in ("symbolic.symbolic_hyp(2).evaluate(9, 5)", "tables.table_value('hyp', 2, 9, 5)"):
        res = _run_optimized("-c", f"from hypcensus import symbolic, tables\nprint({call})")
        assert res.returncode == 1, res.stdout
        assert "ValueError: q = 9 is not a power of an odd characteristic p = 5" in res.stderr


def test_empty_suite_refusal_survives_python_O():
    # a suite left nothing to check raises ValueError with asserts compiled out
    res = _run_optimized("-c", "from hypcensus import oracle\n"
                               "oracle.verify_suite('counts', qs=(3,), nmax=0)")
    assert res.returncode == 1, res.stdout
    assert "ValueError: suite counts: nmax = 0 leaves nothing to check" in res.stderr


def test_packed_width_refusal_survives_python_O():
    # a packing wider than an int64 raises ValueError with asserts compiled out
    res = _run_optimized("-c", "from hypcensus import field, oracle\n"
                               "oracle._packing(field.make_field(3, 1), 22)")
    assert res.returncode == 1, res.stdout
    assert "ValueError: q = 3, n = 22: the packed codes take 66 bits" in res.stderr


def test_counts_cli_streams_its_rows():
    # the F_7 counts suite in a child that prints its own peak RSS when done:
    # the rows are read a block at a time, where a full state per n took
    # the run to 203 MB
    script = ("import resource, sys\n"
              "from hypcensus.cli import main\n"
              "code = main(['verify', '--suite', 'counts', '--q', '7'])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)  # KiB on Linux\n"
              "sys.exit(code)")
    src = os.path.normpath(os.path.join(TESTS, os.pardir, "src"))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert res.returncode == 0, res.stderr
    out, peak = res.stdout.splitlines()
    assert out == "suite counts: 95 checks ok"
    assert int(peak) / 1024 < 120, int(peak) / 1024


def test_suite_checks_survive_python_O():
    # a wrong closed form must fail the eps suite even with asserts compiled
    # out, over F_3 and over F_9; F_9 needs n = 6, since every sign of a
    # stable 4-set over it is +1
    for q, n in ((3, 4), (9, 6)):
        res = _run_optimized(
            "-c",
            "import numpy\n"
            "from hypcensus import multiplier, oracle\n"
            "multiplier.epsilon_closed_forms = (\n"
            "    lambda elems, which, forms, ctx: numpy.ones(len(which)))\n"
            f"print(oracle.verify_epsilon(qs=({q},), ns_list=({n},)))",
        )
        assert res.returncode == 1, res.stdout
        assert f"VerificationError: eps: engine == sweep == closed form: ({q}, {n}, " in res.stderr


def test_cocycle_closed_form_checks_survive_python_O():
    # the first batched closed-form sign flipped: the cocycle suite must
    # still raise under python -O, naming the member the per-element loop
    # named first, the first nonidentity member of the first test set
    k = ff.make_field(3, 1)
    s = oc._stab_test_sets(3, k)[0]
    first = next(el for el in ns.stabilizer(s, k) if el.kind != "identity")
    res = _run_optimized(
        "-c",
        "from hypcensus import multiplier, oracle\n"
        "batched = multiplier.epsilon_closed_forms\n"
        "def flipped(elems, which, forms, ctx):\n"
        "    signs = batched(elems, which, forms, ctx).copy()\n"
        "    signs[0] *= -1\n"
        "    return signs\n"
        "multiplier.epsilon_closed_forms = flipped\n"
        "oracle.verify_cocycle(triples=0, hom_exhaustive=(), hom_sampled=())\n",
    )
    assert res.returncode == 1, res.stdout
    assert (f"VerificationError: cocycle: closed form on a stabilizer: {(3, s, first.mat)}"
            in res.stderr)


def test_sweep_sign_checks_survive_python_O():
    # the first batched sweep sign flipped: the eps suite must still raise
    # under python -O, naming the first stable pair as the per-pair loop did
    k = ff.make_field(3, 1)
    st = oc.ActionState(k, 4)
    for el in mo.enumerate_pgl(k):
        kappa, stable = st.kappa_stable(el.mat)
        if el.kind != "identity" and stable.any():
            i = int(np.flatnonzero(stable)[0])
            e0 = int(st.tabs.CHI[kappa[i]])
            first = (3, 4, el.mat, ref.nset_at(st, i), (e0, -e0, e0))
            break
    res = _run_optimized(
        "-c",
        "from hypcensus import multiplier, oracle\n"
        "batched = multiplier.epsilons\n"
        "def flipped(ctx, mats, forms):\n"
        "    signs = batched(ctx, mats, forms).copy()\n"
        "    signs.flat[0] *= -1\n"
        "    return signs\n"
        "multiplier.epsilons = flipped\n"
        "print(oracle.verify_epsilon(qs=(3,), ns_list=(4,)))",
    )
    assert res.returncode == 1, res.stdout
    assert f"VerificationError: eps: engine == sweep == closed form: {first}" in res.stderr


def test_cocycle_checks_survive_python_O():
    # one multiplier of the batched random triples times 2: the cocycle law
    # fails on that triple (2 J != 4 J) even with asserts compiled out, and
    # the error names it as drawn, the fourth triple over F_5 of seed 5
    rng = random.Random(5)
    k = ff.make_field(5, 1)
    for _ in range(4):
        triple = (ref.random_gl(rng, k), ref.random_gl(rng, k), ref.random_nset(rng, k, 6))
    res = _run_optimized(
        "-c",
        "from hypcensus import field, multiplier, oracle\n"
        "batched = multiplier.kappa_multipliers\n"
        "def perturbed(ctx, mats, forms):\n"
        "    j, img = batched(ctx, mats, forms)\n"
        "    if j.shape == (7,):\n"
        "        j = j.copy()\n"
        "        j[3] = field.tables(ctx).MUL[2, j[3]]\n"
        "    return j, img\n"
        "multiplier.kappa_multipliers = perturbed\n"
        "oracle.verify_cocycle(seed=5, triples=7, hom_exhaustive=(), hom_sampled=())\n",
    )
    assert res.returncode == 1, res.stdout
    assert f"VerificationError: cocycle: cocycle law, random triple: {(5, *triple)}" in res.stderr


def test_sign_homomorphism_checks_survive_python_O():
    # the sign of x -> 1/x flipped on its first stable n-set: the
    # exhaustive homomorphism check must still raise under python -O, over
    # F_3 at n = 6 and over F_9 at n = 4
    for p, e, n in ((3, 1, 6), (3, 2, 4)):
        res = _run_optimized(
            "-c",
            "import numpy\n"
            "from hypcensus import field, oracle\n"
            "fixed_forms = oracle.fixed_forms\n"
            "def flipped(ctx, n, mats):\n"
            "    elem, forms, kappa = fixed_forms(ctx, n, mats)\n"
            "    hit = numpy.flatnonzero((numpy.asarray(mats) == (0, 1, 1, 0)).all(-1))\n"
            "    if len(hit):\n"
            "        i = (elem == hit[0]).argmax()\n"
            "        kappa = kappa.copy()\n"
            "        kappa[i] = field.tables(ctx).MUL[field.mult_generator(ctx), kappa[i]]\n"
            "    return elem, forms, kappa\n"
            "oracle.fixed_forms = flipped\n"
            f"oracle.verify_cocycle(triples=0, hom_exhaustive=(({p**e}, {n}),), hom_sampled=())\n",
        )
        assert res.returncode == 1, res.stdout
        assert f"VerificationError: cocycle: homomorphism: ({p**e}, {n}, " in res.stderr
        assert "GlMatrix(a=0, b=1, c=1, d=0)" in res.stderr.splitlines()[-1]


def test_sampled_sign_homomorphism_checks_survive_python_O():
    # the first nonidentity member of the first sampled stabilizer at
    # (5, 8) gets the opposite sign from the batched sweep: the sampled
    # homomorphism check must raise under python -O, naming the pair the
    # per-set reference names on that set
    k = ff.make_field(5, 1)
    st = oc.ActionState(k, 8)
    codes = mo.mat_codes(el.mat for el in oc._subtype_reps(k))
    elem, forms, kappa = oc.fixed_forms(k, 8, codes)
    want_elem, rows, want_kappa = ref.fixed_rows(k, st.V, codes)
    assert np.array_equal(elem, want_elem) and np.array_equal(kappa, want_kappa)
    assert np.array_equal(forms, st.V[rows])
    s = ref.nset_at(st, int(rows[0]))  # the first sampled set
    stab = ns.stabilizer(s, k)
    signs = [mult.epsilon(el.mat, s, k) for el in stab]
    g = next(i for i, el in enumerate(stab) if el.kind != "identity")
    signs[g] *= -1
    index = mo.pgl_table(k).index
    with pytest.raises(census.VerificationError) as want:
        ref.sign_homomorphism(k, [index[el.mat] for el in stab], signs, 5, 8, s)
    res = _run_optimized(
        "-c",
        "import numpy\n"
        "from hypcensus import multiplier, oracle\n"
        "batched = multiplier.epsilons\n"
        "def flipped(ctx, mats, forms):\n"
        "    signs = batched(ctx, mats, forms)\n"
        "    if ctx.q == 5 and len(numpy.unique(forms, axis=0)) > 1:  # the sampled sets\n"
        "        signs = signs.copy()\n"
        "        signs[(mats != (1, 0, 0, 1)).any(-1).argmax()] *= -1\n"
        "    return signs\n"
        "multiplier.epsilons = flipped\n"
        "oracle.verify_cocycle(triples=0, hom_exhaustive=(), hom_sampled=((5, 8),))\n",
    )
    assert res.returncode == 1, res.stdout
    assert str(want.value).startswith("cocycle: homomorphism: (5, 8, ")
    assert f"VerificationError: {want.value}" in res.stderr


def test_kernel_checks_survive_python_O():
    # one Gauss-Jordan step corrupted: after the pivot of column 0, the
    # first such matrix of the stack gets 1 added at the end of its pivot
    # row, so a kernel basis vector of x -> 1/x misses T v = lam v, and
    # fixed_forms must raise under python -O before any sign is read
    res = _run_optimized(
        "-c",
        "from hypcensus import field, oracle\n"
        "step = field._eliminate\n"
        "def corrupted(ctx, r, rank, pivot_col, c):\n"
        "    took = step(ctx, r, rank, pivot_col, c)\n"
        "    if c == 0 and took.any():\n"
        "        b = took.argmax()\n"
        "        r[b, 0, -1] = (r[b, 0, -1] + 1) % ctx.p\n"
        "    return took\n"
        "field._eliminate = corrupted\n"
        "print(oracle.verify_epsilon(qs=(3,), ns_list=(4,)))",
    )
    assert res.returncode == 1, res.stdout
    assert ("VerificationError: fixed_forms: T v == lam v on every kernel basis vector: "
            "(3, 4, GlMatrix(a=0, b=1, c=1, d=0), 1, [0, 0, 0, 0, 1])") in res.stderr


def test_argument_checks_survive_python_O():
    # an element that does not fix the set is a bad argument to the closed
    # form: ValueError (exit 2 in the CLI), not a silent answer
    res = _run_optimized(
        "-c",
        "from hypcensus import field, moebius, multiplier, nset\n"
        "k = field.make_field(3, 1)\n"
        "e = moebius.classify(k, moebius.GlMatrix(1, 1, 0, 1))\n"
        "s = nset.make_nset(k, (0, 2, 1), False)  # x(x - 1): the points 0 and 1\n"
        "print(multiplier.epsilon_closed_form(e, s, k))",
    )
    assert res.returncode == 1, res.stdout
    assert "ValueError: closed form requires gamma S = S" in res.stderr


def test_fixed_count_checks_survive_python_O():
    # no kind C element of order 3 exists over F_3; the count must raise,
    # not return 4
    res = _run_optimized(
        "-c",
        "from hypcensus import census\n"
        "print(census.plain_fixed_count(3, 4, 'C', 3))",
    )
    assert res.returncode == 1, res.stdout
    assert res.stdout == ""
    assert "ValueError: no kind C element of order 3 over F_3" in res.stderr


def test_component_checks_survive_python_O():
    # one n-set too many in every kind C piece is no whole number of
    # curves; the exact division must raise with asserts compiled out
    res = _run_optimized(
        "-c",
        "from hypcensus import census\n"
        "free = census.free_count\n"
        "census.free_count = lambda q, kind, k: free(q, kind, k) + (kind == 'C')\n"
        "print(census.hyp_components(2, 5))",
    )
    assert res.returncode == 1, res.stdout
    assert res.stdout == ""
    assert "VerificationError: non-integer value" in res.stderr


def test_census_checks_survive_python_O():
    # an sd one too large (half the group order more in the kind C sum of
    # the twist sign -1 Burnside pass) makes hyp + sd odd; the parity and
    # exactness checks must still fail with asserts compiled out
    res = _run_optimized(
        "-c",
        f"import sys; sys.path.insert(0, {TESTS!r})\n"
        "from hypcensus import census\n"
        "from reference import poly_divexact\n"
        "burnside = census._burnside\n"
        "def shifted(q, p, n, sign):\n"
        "    sums = burnside(q, p, n, sign)\n"
        "    if sign < 0:\n"
        "        sums['C'] += (q**3 - q) // 2\n"
        "    return sums\n"
        "census._burnside = shifted\n"
        "for fn, args in ((census.census_report, (2, 3)), (census.y_nset_classes, (2, 3)),\n"
        "                 (poly_divexact, ((1, 1, 1), (1, 1)))):\n"
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
        raise census.VerificationError(3, "C", 2)

    monkeypatch.setitem(oc.SUITES, "norm", boom)
    code, _, err = run(capsys, "verify", "--suite", "norm")
    assert code == 1
    assert "counterexample" in err


def test_verify_wrong_option_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "cocycle", "--q", "3,5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv,message", [
    (("verify", "--suite", "eps", "--q", "abc"), "invalid literal for int()"),
    (("verify", "--suite", "eps", "--q", ","), "no field size in --q ','"),
    (("hyp", "--g", "2", "--q", ","), "no field size in --q ','"),
    (("verify", "--suite", "cocycle", "--triples", "-5"), "triples must be >= 0, got -5"),
    (("verify", "--suite", "counts", "--q", "15"), "q must be a prime power, got 15"),
    (("verify", "--suite", "cocycle", "--q", "5"), "suite cocycle takes no --q"),
    (("verify", "--suite", "points", "--triples", "5"), "suite points takes no --triples"),
    (("hyp", "--g", "2", "--p", "3", "--e", "-1"), "--e must be >= 1, got -1"),
    (("hyp", "--g", "2", "--p", "3", "--e", "0"), "--e must be >= 1, got 0"),
])
def test_bad_input_exits_2(capsys, argv, message):
    # no traceback (exit 1 reads as a mismatch) and no vacuous pass
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_verify_counts_each_field_once(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "eps", "--q", "3,3")
    assert code == 0
    assert out == "suite eps: 888 checks ok\n"


def test_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_parser_reads_the_engine_constants():
    # the parser is built without the engine; its suite choices and default
    # budget must still be the engine's own
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    budget = next(a for a in sub.choices["oracle"]._actions if a.dest == "budget")
    assert list(suite.choices) == sorted(oc.SUITES)
    assert budget.default == oc.DEFAULT_BUDGET
