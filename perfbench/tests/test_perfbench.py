"""Tests of the benchmark itself: mixes, references, span arithmetic, tracing."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

import calibration  # noqa: E402
import layers  # noqa: E402
import mixes  # noqa: E402
import refcheck  # noqa: E402
import worker  # noqa: E402
from hextiling import cli, formulas  # noqa: E402
from spans import self_times  # noqa: E402


def _take(workload, seed, k=3):
    gen = mixes.blocks(workload, seed)
    return [next(gen) for _ in range(k)]


@pytest.mark.parametrize("workload", sorted(mixes.WORKLOADS))
def test_same_seed_gives_same_argv_lists(workload):
    first = _take(workload, 7)
    assert first == _take(workload, 7)
    assert first != _take(workload, 8)
    parser = cli.build_parser()
    for block in first:
        assert len(block) == mixes.BLOCK_SIZE
        for argv in block:
            parser.parse_args(argv)


def test_macmahon_reference_matches_product():
    for a in range(0, 5):
        for b in range(0, 5):
            for c in range(0, 5):
                assert refcheck.macmahon_reference(a, b, c) == formulas.macmahon_count(a, b, c)


def test_balanced_route_matches_fixed_counts_and_proportion():
    for n in range(1, 7):
        for m in range(1, 5):
            for l in range(1, n + 1):
                p = formulas.proportion_balanced_form(n, m, l)
                assert p == formulas.proportion_nm(n, m, l)
                assert p * refcheck.macmahon_reference(n, n, 2 * m) == \
                    formulas.fixed_count_even(n, m, l)
                assert p * refcheck.macmahon_reference(n + 1, n + 1, 2 * m - 1) == \
                    formulas.fixed_count_odd(n, m, l)


@pytest.mark.parametrize("argv", [
    ["count", "--sides", "5", "3"],
    ["fixed", "--sides", "4", "4", "--l", "3"],
    ["fixed", "--sides", "4", "5", "--l", "2"],
    ["sweep", "--a", "0.5", "--b", "0.25", "--n", "8", "12"],
    ["verify", "--suite", "hyp-chain", "--max-n", "4", "--max-m", "3"],
])
def test_correct_outputs_pass_the_checks(argv):
    rc, out, err, _ = worker.call(cli, argv)
    assert refcheck.check(argv, rc, out, err, formulas.proportion_balanced_form) is None


def test_wrong_output_counts_as_error():
    argvs = [["count", "--sides", "3", "3"], ["fixed", "--sides", "3", "4", "--l", "1"],
             ["verify", "--suite", "lemma5", "--max-n", "2", "--max-m", "2"]]
    records = [(argv, *worker.call(cli, argv)) for argv in argvs]
    tampered = [
        (argvs[0], 0, "981\n", "", 0.001),                             # wrong count
        (argvs[1], 0, records[1][2].replace("total", "totl"), "", 0.001),
        (argvs[2], 0, records[2][2].replace("PASS", "FAIL", 1), "", 0.001),
        (argvs[2], 1, records[2][2], "1 checks FAILED\n", 0.001),     # nonzero exit
    ]
    reasons = worker.failures(records + tampered, formulas.proportion_balanced_form)
    assert reasons[:3] == [None, None, None]
    assert all(reasons[3:])
    e2e = worker.end_to_end(records + tampered, reasons, block_walls=[5.0], factors=[0.5])
    assert e2e["wall.latency_tail_ms"] == 5000.0   # failures count against the tail
    assert e2e["latency_tail_ms"] == 2500.0
    assert e2e["throughput_rps"] == 2 * e2e["wall.throughput_rps"]


def test_calibration_kernel_does_fixed_work():
    assert calibration.grid_matchings() == 781   # domino tilings of a 4 x 7 grid
    assert calibration.calibration_seconds() > 0


def test_self_times_of_a_nested_tree():
    # root [0, 10) with children a [1, 4) and b [5, 9); a has child c [2, 3)
    start = [0.0, 1.0, 2.0, 5.0, 20.0]
    end = [10.0, 4.0, 3.0, 9.0, 21.0]
    parent = [-1, 0, 1, 0, -1]
    own = self_times(start, end, parent)
    assert own == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(own) == (10.0 - 0.0) + (21.0 - 20.0)


def test_traced_pass_attributes_every_layer_and_restores_the_program():
    original_main, original_binomial = cli.main, formulas.binomial
    argvs = [["fixed", "--sides", "4", "4", "--l", "2"],
             ["verify", "--suite", "factorization", "--max-a", "2", "--max-m", "2"],
             ["verify", "--suite", "p-polynomial", "--max-n", "3"]]
    plain = [worker.call(cli, argv)[:3] for argv in argvs]
    tracer, traced, wall = worker.traced_pass(cli, argvs)
    assert cli.main is original_main and formulas.binomial is original_binomial
    assert [r[1:4] for r in traced] == plain

    m = layers.layer_metrics(tracer, wall, wall, fixed_requests=[0])
    assert m["cli.requests"] == 3
    assert m["formulas.macmahon_count.per_fixed"] == 2
    assert m["exact.binomial.calls"] > 0          # bound by name inside formulas
    assert m["hexagon.build_region.calls"] > 0    # bound by name inside oracle
    assert m["oracle.enumerate_tilings.yielded"] > 0
    assert 0 < m["oracle.fixed.useful_ratio"] < 1
    assert m["matrices.determinant.n_max"] == 3
    assert m["verify.checks"] == 4 + 18
    self_total = sum(m[f"{g}.self_s"] for g in layers.SELF_GROUPS)
    assert self_total + m["trace.outside_s"] == pytest.approx(wall, abs=1e-9)
    assert set(layers.group_of(n) for n in tracer.names) <= set(layers.SELF_GROUPS)


def test_count_loc_skips_blanks_comments_and_docstrings(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text('"""Module\ndocstring."""\n\n# comment\nx = 1  # trailing\n\n'
                   'def f():\n    """Doc."""\n    return (x +\n            1)\n')
    assert layers.count_loc(src) == 4

