import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from hextiling.cli import (
    SWEEP_HEADER,
    SweepRow,
    main,
    rows_to_csv,
    rows_to_json,
)

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
    from hextiling.hexagon import HexagonSpec, axis_positions, normalize

    expected = [f"{r.status} {r.name} ({r.detail})" for r in verify.check_totals(3, 4, 3)]
    for a in range(1, 4):
        for m_side in range(1, 5):
            spec = HexagonSpec(a, m_side)
            params = normalize(spec)
            if params.n == 0:
                continue
            for l in range(1, axis_positions(params) + 1):
                got = oracle.count_with_fixed_rhombus(spec, l)
                want = formulas.fixed_count(params, l)
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


def test_verify_hyp_chain_reports_skips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "hyp-chain",
                           "--max-n", "4", "--max-m", "1")
    assert code == 0
    assert any(line.startswith("SKIP") for line in out.splitlines())
    assert "skipped" in out.strip().splitlines()[-1]


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
])
def test_sweep_rejects_bad_inputs_up_front(capsys, argv, message):
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
]


@pytest.mark.parametrize("bounds, digest", _GOLDEN_VERIFY,
                         ids=[bounds[0] for bounds, _ in _GOLDEN_VERIFY])
def test_lgv_suite_output_matches_recorded_digest(capsys, bounds, digest):
    code, out, err = run_cli(capsys, "verify", "--suite", *bounds)
    got = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
    assert got == digest
