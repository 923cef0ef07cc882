import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from hextiling import formulas, hexagon, oracle, verify
from hextiling.cli import (
    SWEEP_HEADER,
    SweepRow,
    main,
    rows_to_csv,
    rows_to_json,
)
from hextiling.formulas import axis_sum

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _row_from_record(rec):
    num, den = rec["proportion_exact"].split("/")
    return SweepRow(
        int(rec["N"]), int(rec["m"]), int(rec["l"]),
        Fraction(int(num), int(den)),
        float(rec["proportion_float"]),
        float(rec["arcsine_value"]),
        float(rec["abs_error"]),
    )


def rows_from_json(text):
    return [_row_from_record(rec) for rec in json.loads(text)]


def rows_from_csv(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert lines and lines[0] == SWEEP_HEADER
    keys = SWEEP_HEADER.split(",")
    return [_row_from_record(dict(zip(keys, ln.split(",")))) for ln in lines[1:]]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_command(capsys):
    code, out, _ = run_cli(capsys, "count", "--sides", "2", "2")
    assert code == 0 and out.strip() == "20"
    code, out, _ = run_cli(capsys, "count", "--sides", "1", "1")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "count", "--sides", "3", "4")
    assert code == 0 and out.strip() == "4116"


def test_fixed_command(capsys):
    code, out, _ = run_cli(capsys, "fixed", "--sides", "2", "2", "--l", "1")
    assert code == 0
    assert out.splitlines() == ["total 20", "fixed 8", "proportion 2/5"]

    code, out, _ = run_cli(capsys, "fixed", "--sides", "3", "4", "--l", "2")
    assert "proportion 1/3" in out

    code, out, _ = run_cli(capsys, "fixed", "--sides", "3", "3", "--l", "2")
    assert out.splitlines()[:2] == ["total 980", "fixed 252"]


def test_fixed_output_is_consistent(capsys):
    _, out, _ = run_cli(capsys, "fixed", "--sides", "3", "2", "--l", "2")
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert Fraction(lines["proportion"]) == Fraction(int(lines["fixed"]), int(lines["total"]))


def test_fixed_errors(capsys):
    code, _, err = run_cli(capsys, "fixed", "--sides", "1", "1", "--l", "1")
    assert code == 2 and "no rhombus" in err
    code, _, err = run_cli(capsys, "fixed", "--sides", "2", "2", "--l", "5")
    assert code == 2 and "l must lie" in err
    code, _, err = run_cli(capsys, "fixed", "--sides", "2", "0", "--l", "1")
    assert code == 2 and "M=0" in err


def test_count_invalid_sides(capsys):
    code, _, err = run_cli(capsys, "count", "--sides", "0", "2")
    assert code == 2 and "error" in err


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_run_suite_rejects_an_unknown_suite():
    # argparse's choices stop the name above; a library caller reaches this
    with pytest.raises(ValueError, match="unknown suite 'nonsense'; choose from \\["):
        verify.run_suite("nonsense")


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma5",
                           "--max-n", "4", "--max-m", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "lemma5: 20/20 checks passed"


def test_oracle_vs_theorems_output_matches_per_position_counts(capsys):
    # The suite counts every axis position of a hexagon on the frontier
    # kernel; its output must equal the lines built from one filtered
    # enumeration per position, checked against the closed forms.
    from hextiling import formulas, oracle, verify
    from hextiling.hexagon import HexagonSpec, axis_positions

    expected = [f"{r.status} {r.name} ({r.detail})" for r in verify.check_totals(3, 4, 3)]
    for a in range(1, 4):
        for m_side in range(1, 5):
            spec = HexagonSpec(a, m_side)
            if spec.n == 0:
                continue
            for l in range(1, axis_positions(spec) + 1):
                got = oracle.count_with_fixed_rhombus(spec, l)
                want = formulas.fixed_count(spec, l)
                status = "PASS" if got == want else "FAIL"
                expected.append(f"{status} hexagon({a},{m_side}) fixed l={l} "
                                f"(oracle {got} vs formula {want})")
    expected.append(f"oracle-vs-theorems: {len(expected)}/{len(expected)} checks passed")
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle-vs-theorems",
                             "--max-a", "3", "--max-m", "4")
    assert (code, err) == (0, "")
    assert out.splitlines() == expected


@pytest.mark.parametrize("argv", [
    ["--suite", "lemma5", "--max-n", "0"],
    ["--suite", "factorization", "--max-a", "-1"],
    ["--suite", "factorization", "--max-a", "1", "--max-m", "1"],
    ["--suite", "oracle-vs-theorems", "--max-a", "0"],
    ["--suite", "column-relation", "--max-n", "3"],
    ["--suite", "corollary", "--max-n", "0"],
])
def test_verify_without_checks_is_an_error(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    message = f"error: suite {argv[1]} ran no checks at these bounds\n"
    assert (code, out, err) == (2, "", message)


def test_verify_failure_sets_exit_code(capsys, monkeypatch):
    from hextiling import verify

    def broken(**_):
        return [verify.CaseResult("forced failure", False, "injected")]

    monkeypatch.setitem(verify.SUITES, "corollary", broken)
    code, out, err = run_cli(capsys, "verify", "--suite", "corollary")
    assert code == 1
    assert "FAIL forced failure" in out
    assert "FAILED" in err


def test_wrong_product_is_a_route_failure_not_a_usage_error(capsys, monkeypatch):
    # the product plus 1 leaves the fixed counts non-integral (4/3 first);
    # that must read as FAIL lines and exit 1, not as "error:" and exit 2
    product = formulas.macmahon_count
    monkeypatch.setattr(formulas, "macmahon_count", lambda a, b, c: product(a, b, c) + 1)
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle-vs-theorems",
                             "--max-a", "3", "--max-m", "4")
    assert code == 1
    assert "error:" not in err
    checks = out.splitlines()[:-1]
    assert len(checks) == 12 + 27 + 18
    assert all(line.startswith("FAIL ") for line in checks)
    assert "FAIL hexagon(1,2) fixed l=1 (oracle 1 vs formula 4/3)" in checks


def _counting(monkeypatch, module, name, calls):
    """Replace ``module.name`` by a wrapper that appends each call's
    positional arguments to ``calls``."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_oracle_suites_do_each_hexagons_work_once(capsys, monkeypatch):
    # factorization 3/4 has 10 hexagons and 37 distinct regions (the
    # trimmed upper halves of hexagon(1, 2) and (1, 4) are both empty); it
    # used to build the cells 56 times and prepare 46 scans.  The kernels
    # receive each scan as its ``later`` lists; holding them keeps ids apart
    cells, counts, enumerations = [], [], []
    _counting(monkeypatch, hexagon, "hexagon_cells", cells)
    _counting(monkeypatch, oracle, "_frontier", counts)
    _counting(monkeypatch, oracle, "_joined_tilings", enumerations)
    factorization = ["verify", "--suite", "factorization", "--max-a", "3", "--max-m", "4"]
    assert run_cli(capsys, *factorization)[0] == 0
    assert len(cells) <= 20
    scans = [args[0] for args in counts] + [args[1] for args in enumerations]
    assert len({id(later) for later in scans}) <= 38
    # oracle-vs-theorems 3/4: 12 hexagon products and 27 box products; the
    # fixed counts of the 10 hexagons with axis rhombi used to take 10 more
    products = []
    _counting(monkeypatch, formulas, "macmahon_count", products)
    assert run_cli(capsys, "verify", "--suite", "oracle-vs-theorems",
                   "--max-a", "3", "--max-m", "4")[0] == 0
    assert len(products) == 39


def test_verify_hyp_chain_reports_skips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "hyp-chain",
                           "--max-n", "4", "--max-m", "1")
    assert code == 0
    assert any(line.startswith("SKIP") for line in out.splitlines())
    assert "skipped" in out.strip().splitlines()[-1]


def test_verify_convergence_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "convergence")
    assert code == 0
    assert out.splitlines()[-1] == "convergence: 3/3 checks passed"
    assert err == ""


def test_commands_are_deterministic(capsys):
    first = run_cli(capsys, "sweep", "--a", "0.5", "--b", "0.5",
                    "--n", "4", "8", "12")
    second = run_cli(capsys, "sweep", "--a", "0.5", "--b", "0.5",
                     "--n", "4", "8", "12")
    assert first == second


def test_sweep_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--a", "0.5", "--b", "0.5",
                           "--n", "10", "20", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    errors = [float(line.split(",")[-1]) for line in lines[1:]]
    assert errors == sorted(errors, reverse=True)  # shrinking toward the limit
    limits = {line.split(",")[-2] for line in lines[1:]}
    assert len(limits) == 1  # the limit column is constant


def test_sweep_clamps_tiny_parameters(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--a", "0.4", "--b", "0.01",
                           "--n", "3")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert (row[0], row[1], row[2]) == ("3", "1", "1")


def test_sweep_rejects_bad_ratios(capsys):
    code, _, err = run_cli(capsys, "sweep", "--a", "0.5", "--b", "1.5", "--n", "4")
    assert code == 2 and "0 < b < 1" in err


@pytest.mark.parametrize("argv, message", [
    (["--a", "0.5", "--b", "0.5", "--n", "0"], "need N >= 1, got N = 0"),
    (["--a", "0.5", "--b", "0.5", "--n", "4", "-3"], "need N >= 1, got N = -3"),
    (["--a", "nan", "--b", "0.5", "--n", "4"], "need a finite a, got nan"),
    (["--a", "inf", "--b", "0.5", "--n", "4"], "need a finite a, got inf"),
    (["--a", "0.5", "--b", "nan", "--n", "4"], "need a finite b, got nan"),
    (["--a", "0.5", "--b", "inf", "--n", "4"], "need a finite b, got inf"),
    (["--a", "1e308", "--b", "0.5", "--n", "5"], "a*N overflows for a = 1e+308, N = 5"),
    (["--a", "0.5", "--b", "1.5", "--n", "4", "10"], "need 0 < b < 1"),
    (["--a", "-1", "--b", "0.5", "--n", "4", "10"], "need a >= 0"),
])
def test_sweep_rejects_bad_inputs_up_front(capsys, monkeypatch, argv, message):
    # a row at large N costs seconds, so bad input must fail before any row
    def no_rows(*_):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(formulas, "proportion_nm", no_rows)
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_with_large_m_finishes_fast():
    # m = a*N = 10^6: the binomials of the prefactor must take their short side
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "hextiling", "sweep", "--a", "100000",
                           "--b", "0.5", "--n", "10"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    n, m, l, exact = proc.stdout.splitlines()[1].split(",")[:4]
    assert (n, m, l) == ("10", "1000000", "5")
    n, m, l = int(n), int(m), int(l)
    prefactor = Fraction(m * math.comb(m + n, m) * math.comb(m + n - 1, m),
                         math.comb(2 * m + 2 * n - 1, 2 * m))
    assert Fraction(exact) == prefactor * axis_sum(n, m, l)


def test_sweep_roundtrip_csv_and_json():
    rows = [SweepRow.compute(n, 0.5, 0.25) for n in (6, 12, 24)]
    assert rows_from_csv(rows_to_csv(rows)) == rows
    assert rows_from_json(rows_to_json(rows)) == rows


def test_sweep_json_rationals_are_strings(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--a", "0.5", "--b", "0.5",
                           "--n", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list)
    num, den = payload[0]["proportion_exact"].split("/")
    assert int(den) > 0
    assert abs(int(num) / int(den) - payload[0]["proportion_float"]) < 1e-12


def test_deep_search_passes_under_low_recursion_limit():
    # Tilings of hexagon(1, 120) are 241 pairs deep, past the recursion limit
    # of 200 set here; the search runs on an explicit stack, so no limit bites.
    script = (
        "import sys; sys.setrecursionlimit(200)\n"
        "from hextiling.cli import main\n"
        "raise SystemExit(main(['verify', '--suite', 'oracle-vs-theorems',"
        " '--max-a', '1', '--max-m', '120', '--max-cells', '1000']))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "oracle-vs-theorems: 181/181 checks passed"


def test_request_past_the_state_budget_exits_2_at_once(capsys):
    # hexagon(10, 9) is the first hexagon of this grid past the oracle's
    # state budget; every hexagon is checked before any is counted, so the
    # run stops at once
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle-vs-theorems",
                             "--max-a", "10", "--max-m", "10", "--max-cells", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: region's frontier is 19 cells wide, so counting it may take "
                      "92378 states, exceeding the budget of 50000"]
    assert "Traceback" not in err


def test_factorization_past_the_cell_limit_exits_2_at_once(capsys):
    # hexagon(4, 6), 128 cells, is the first hexagon of this grid past the
    # default cell limit; every hexagon is checked before the first
    # enumeration, so the run stops at once, on the same line
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", "factorization",
                             "--max-a", "4", "--max-m", "6")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: region has 128 cells, exceeding the limit of 120\n"


def test_module_entry_point_runs_the_readme_commands():
    env = dict(os.environ, PYTHONPATH=SRC)

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "hextiling", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        return proc.returncode, proc.stdout.splitlines(), proc.stderr

    assert run("count", "--sides", "2", "2") == (0, ["20"], "")
    assert run("fixed", "--sides", "2", "2", "--l", "1") == (
        0, ["total 20", "fixed 8", "proportion 2/5"], "")
    code, lines, err = run("verify", "--suite", "lemma5", "--max-n", "2", "--max-m", "2")
    assert (code, lines[-1], err) == (0, "lemma5: 6/6 checks passed", "")
    code, lines, err = run("sweep", "--a", "0.5", "--b", "0.5", "--n", "10")
    assert (code, lines[0], len(lines), err) == (0, SWEEP_HEADER, 2, "")
    # the exit code of main reaches the shell
    assert run("fixed", "--sides", "1", "1", "--l", "1")[0] == 2


def test_sweep_prints_exact_values_past_the_digit_limit():
    # N = 5000 gives a numerator of 4489 digits, past CPython's default
    # 4300-digit limit for int-to-str conversion
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "hextiling", "sweep", "--a", "1",
                           "--b", "0.5", "--n", "5000"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    header, row = proc.stdout.splitlines()
    numerator = row.split(",")[3].split("/")[0]
    assert header == SWEEP_HEADER and len(numerator) > 4300


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no int-to-str digit limit")
def test_main_lifts_the_digit_limit_only_while_it_runs(capsys, monkeypatch):
    before = sys.get_int_max_str_digits()
    monkeypatch.setattr(formulas, "macmahon_count", lambda a, b, c: 10 ** 5000)
    assert run_cli(capsys, "count", "--sides", "2", "2") == (0, "1" + "0" * 5000 + "\n", "")
    assert sys.get_int_max_str_digits() == before
    assert run_cli(capsys, "count", "--sides", "0", "2")[0] == 2
    assert sys.get_int_max_str_digits() == before


def test_import_path_loads_no_dataclasses_inspect_or_json():
    # only modules that importing the CLI newly loads count, so the test
    # holds where site start-up has already loaded some of them
    script = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "before = set(sys.modules)\n"
        "import hextiling.cli\n"
        "hextiling.cli.build_parser()\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "hextiling.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "json"} == set()


def test_verify_warns_about_ignored_bounds(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "lemma5", "--max-n", "3",
                             "--max-m", "2", "--max-a", "3")
    assert code == 0 and out.splitlines()[-1] == "lemma5: 9/9 checks passed"
    assert err.splitlines() == ["warning: suite lemma5 takes no max_a; max_a=3 ignored"]
    code, _, err = run_cli(capsys, "verify", "--suite", "lemma5", "--max-n", "3",
                           "--max-m", "2")
    assert code == 0 and err == ""


def test_oracle_vs_theorems_warns_about_its_box_cap(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle-vs-theorems",
                             "--max-a", "4", "--max-m", "1")
    assert code == 0
    assert "box(3,3,3) total" in out and "box(4," not in out
    assert "hexagon(4,1) total" in out
    assert err.splitlines() == ["warning: suite oracle-vs-theorems checks boxes only "
                                "up to 3x3x3; max_a=4 bounds the hexagons only"]
    code, _, err = run_cli(capsys, "verify", "--suite", "oracle-vs-theorems",
                           "--max-a", "3", "--max-m", "1")
    assert code == 0 and err == ""


# SHA-256 of json.dumps([rc, stdout, stderr]) of ``hextiling verify --suite``
# with these bounds.  A rewrite of the LGV kernels or the closed forms that
# keeps every value exact leaves every byte of this output as it is.
_GOLDEN_VERIFY = [
    (["p-polynomial", "--max-n", "6"],
     "f0f4f80210757d4c8dd95b6faef04fceab5953eaa86a1b949bbe81408db171fd"),
    (["symmetries", "--max-n", "4"],
     "0a27c65880f1b6cfeed3a6a3b996c708b56a2de2a4cf5d8e2e77eae38260c2c3"),
    (["lemma6", "--max-n", "6", "--max-m", "4"],
     "97ed08dd8ec3027e809110eaa874cfd92c0bcc1cf61bf51586f32d3e4d76c6a5"),
    (["column-relation", "--max-n", "8"],
     "2414991355bf9590ef3f2c5e38380f11ed05ac8a93606607a5dcfbe8b033ca54"),
    (["hyp-chain", "--max-n", "6", "--max-m", "4"],
     "1b615001e359ef1d8ade5427ae03ef0795168e5f16b8f5f206594345a3cf85b9"),
    (["corollary", "--max-n", "10"],
     "66869c8c5b989f851a02d63fd3a63558fa9d020455b18cdb074f6fe566c0e439"),
    (["symmetries", "--max-n", "6"],
     "d4c419efd75277d331d8331db92db97cff0b7d0a87a9d47ce38cb96cad990daa"),
    (["column-relation", "--max-n", "10"],
     "c2a96e06d5057f2822400139ba82bc8ee24fe877fef814e3ffa33311d40417a8"),
    (["lemma5", "--max-n", "8", "--max-m", "8"],
     "0529e0ed7992141737f48c8bfe146907117a09e8395049eb036a1337d3740ae7"),
    (["lemma6", "--max-n", "8", "--max-m", "5"],
     "ac75d1231b9086f5ad4c6ef955a823ca2b819ecf7c24977bea54307561ef2dbf"),
    (["hyp-chain", "--max-n", "8", "--max-m", "6"],
     "dd5b2d28a25d4beaca0a7deac419dab700e145540e46c09c94bb04f163777169"),
    (["p-polynomial", "--max-n", "7"],
     "4e6a630aafae9f6748cdb981b8d0f9c527687b5e875ad28450ffe957139e8b01"),
    (["corollary", "--max-n", "16"],
     "1994cba4ab4d3c8d22a3116ed012fe2959545ac2385c5e3ba17e52f78da7f785"),
    (["corollary", "--max-n", "2"],
     "8e8ad9c9ab51e9212a8b15a7f56bf2310f1fa62a9b65bd51054eb030297e7885"),
    (["symmetries", "--max-n", "3"],
     "c84e1f0ebff3e5a552a1d12d887449d629bf4becf5349ba3623b7f099d793a06"),
    (["symmetries", "--max-n", "5"],
     "0197f32063fe6e7f007ba768b494255fd97b983c423572eb32cc942c7c243e16"),
    (["symmetries", "--max-n", "8"],
     "025ebc49282d5e8b912de83682df02764304ceeeb4551451250dc9e11a5d1283"),
    (["p-polynomial", "--max-n", "9"],
     "97393206301136aed4f7985b0a5cbff39ad6ff054bb99f3b5b212b962978912a"),
    (["p-polynomial", "--max-n", "5"],
     "c632207b03d0a1ce43840df1f205b088eb1aeb0c8d40029337319b4d566bf54f"),
    (["hyp-chain", "--max-n", "4", "--max-m", "3"],
     "525c6e4014fd1ead3167b804e10d7a6556c177836d19d6d1b6b76848e0f03232"),
    (["hyp-chain", "--max-n", "5", "--max-m", "4"],
     "d2d1bd11a785f3a52ccc94c46b251225388f97f67d0c7171770897c46213afe4"),
    (["column-relation", "--max-n", "6"],
     "085217fdeac15fbb9f633aec43974e2186eb4de80e8f2f2c84b7d2269e800acc"),
]


# The same digests for the commands that describe a hexagon by its sides:
# the oracle-backed suites, the queries, and the usage errors on the sides.
_GOLDEN_COMMANDS = [
    (["verify", "--suite", "oracle-vs-theorems", "--max-a", "3", "--max-m", "4"],
     "2cde2c5564e7b5dd10b7835502481c30d87d866e7464bc8893609cafc4a6466a"),
    (["verify", "--suite", "oracle-vs-theorems", "--max-a", "4", "--max-m", "2"],
     "3ffea6b1966d45f4e2b317e41f5bc81595bc52e7e0ad99a249dc1b9e0e7c8f60"),
    (["verify", "--suite", "factorization", "--max-a", "3", "--max-m", "4"],
     "12bcab4c377173d6859e5c6c20efb805fdac34afe1d6d5254bf8caf84cf794b8"),
    (["verify", "--suite", "oracle-vs-theorems", "--max-a", "2", "--max-m", "5"],
     "c2978ebd385f7b121cceef26a0ddb9a624ec24797767010b432fc4b7876249e3"),
    (["verify", "--suite", "factorization", "--max-a", "2", "--max-m", "5"],
     "0dd1bdc0531e438b2faa20cc711e1ee453afe3b7578d174ef48c813a9c135dca"),
    (["verify", "--suite", "factorization", "--max-a", "3", "--max-m", "3"],
     "eb5bc88e82ee145a6d9599da07f017bb90246bc23da3951a16759fbdf4cf8bf1"),
    (["count", "--sides", "12", "9"],
     "6c010f936f094e2004a0d31aafc37bafeec251165c218505801ba080a55426a5"),
    (["fixed", "--sides", "24", "25", "--l", "7"],
     "bfa54d8f929d147eebd97abd20b1935acf78ae5d6475eff9d37355e15cc63877"),
    (["fixed", "--sides", "3", "4", "--l", "2"],
     "f16d7b636d3b8201bac61a8db615b8ce4b9123d031a0a58a55d44e6b8dccc2c4"),
    (["sweep", "--a", "0.5", "--b", "0.25", "--n", "4", "9", "16", "25"],
     "c36ad29fb6d799b63fdf9dda4a720a599e7e6b1a60149aea3dbb0d678a22fd7c"),
    (["sweep", "--a", "1.5", "--b", "0.75", "--n", "3", "10", "--format", "json"],
     "f9119cf805ba76c53e4e9ce6210906eeb93697e7cf259f84b311422cd8c9b925"),
    (["count", "--sides", "3", "0"],
     "c34df141c0f903eeec3a3453bc018170012c38ff85d862c25fcc2338eb171bed"),
    (["fixed", "--sides", "2", "0", "--l", "1"],
     "cac92aacc61c554bc5a64efc77bc0dfc70419a06951fe27dab4565c15970c949"),
    (["fixed", "--sides", "1", "1", "--l", "1"],
     "ccc452565f4d561b334ed0ab5acfec04c708fd217eecf63c48130778ca8ca8c4"),
    (["fixed", "--sides", "3", "4", "--l", "0"],
     "5563b825ace8a6a5ae53adcc460cc7c3a50b04675d386f749a26fa3ff9656d39"),
    (["sweep", "--a", "0.25", "--b", "0.25", "--n", "200", "400"],
     "60b3b1ad9d7d449458bd8a9440024f6bd996d8fa87ea79ef9c6a5e403d75c561"),
    (["sweep", "--a", "1", "--b", "0.5", "--n", "300", "--format", "json"],
     "dee8e1f5e0b04f4da1f39869509b49c5cd874e900e2ef4cf39387e83a4a0fd76"),
    (["fixed", "--sides", "25", "24", "--l", "13"],
     "d58db53480354e6454b83cf2f33dc6284b67cf0a5d91b3092fc01947c0ede26f"),
]


def _output_digest(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def _golden_ids(cases):
    """The suite name for its first bounds, the whole bounds after that."""
    ids = []
    for bounds, _ in cases:
        ids.append(" ".join(bounds) if bounds[0] in ids else bounds[0])
    return ids


@pytest.mark.parametrize("bounds, digest", _GOLDEN_VERIFY, ids=_golden_ids(_GOLDEN_VERIFY))
def test_lgv_suite_output_matches_recorded_digest(capsys, bounds, digest):
    assert _output_digest(capsys, "verify", "--suite", *bounds) == digest


def test_unsigned_reflection_results_match_recorded_digest():
    # the sign-free reflection has no suite of its own; the red acceptance
    # check reads its results, which must stay as recorded: 20 of 36 fail
    results = verify.check_reflection_unsigned(max_n=8)
    listed = json.dumps([[r.name, r.ok, r.detail] for r in results])
    assert sum(not r.ok for r in results) == 20
    assert (hashlib.sha256(listed.encode()).hexdigest()
            == "b0effc387298266a23981f95dee6e5c0d1fd6c4dc29072713f29b6eeef1088c6")


@pytest.mark.parametrize("argv, digest", _GOLDEN_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in _GOLDEN_COMMANDS])
def test_command_output_matches_recorded_digest(capsys, argv, digest):
    assert _output_digest(capsys, *argv) == digest
