"""Tests of the benchmark's independent checker, its failure count, its
tracer and its seeded inputs."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checker  # noqa: E402
import worker  # noqa: E402
from hypomean import FactorableGenerators, LinearWeights, MatrixKind, finite_section  # noqa: E402
from hypomean.cli import main as cli_main  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ODD_FLOOR, Call, Verifier  # noqa: E402

F = Fraction


def certify_output(tmp_path, spec, N, *flags):
    path = tmp_path / "report.json"
    code = cli_main(["certify", *flags, "--weights", spec, "--N", str(N), "--json", str(path)])
    return {"exit": code, "report": json.loads(path.read_text())}


def test_anchor_determinant_of_q1():
    assert checker.expected_certify(F(2), F(1), 1).determinant == F(2663, 145800)


def test_real_reports_pass(tmp_path):
    verify = Verifier()
    cases = [(Call("certify", F(2), F(1), 1, ("--bounds",)), "linear:2,1"),
             (Call("certify", F(1), F(5), 70), "linear:1,5"),
             (Call("certify", F(2, 9), F(1, 3), 12, ("--cross-check-minors",)), "linear:2/9,1/3")]
    for call, spec in cases:
        output = certify_output(tmp_path, spec, call.N, *call.flags)
        assert verify(call, output) == []
    assert output["report"]["determinant"] is not None


def test_not_positive_anchor_is_predicted():
    exp = checker.expected_certify(F(1), F(5), 300)
    assert (exp.verdict, exp.first_nonpositive) == ("NotPositive", 65)


def test_flipped_verdict_fails(tmp_path):
    call = Call("certify", F(2), F(1), 1)
    output = certify_output(tmp_path, "linear:2,1", 1)
    output["report"]["verdict"] = "NotPositive"
    assert Verifier()(call, output)


def test_wrong_exit_code_fails(tmp_path):
    call = Call("certify", F(1), F(5), 70)
    output = certify_output(tmp_path, "linear:1,5", 70)
    output["exit"] = 0
    assert Verifier()(call, output)


def test_perturbed_determinant_fails(tmp_path):
    call = Call("certify", F(2), F(1), 1)
    output = certify_output(tmp_path, "linear:2,1", 1)
    output["report"]["determinant"] = "2664/145800"
    assert Verifier()(call, output)


def test_p_oracle_dump(tmp_path):
    g = FactorableGenerators(LinearWeights(3, 1))
    payload = {"family": "linear:3,1", "N": 8, "kind": "P-oracle",
               "entries": finite_section(g, MatrixKind.P_ORACLE, 8).to_string_rows()}
    assert checker.check_p_oracle_dump(payload, F(3), F(1), 8) == []
    payload["entries"][2][5] = "1/7"
    assert checker.check_p_oracle_dump(payload, F(3), F(1), 8)


def test_false_certified_floor_fails():
    deltas = checker.interior_pivots(F(2), F(1), 20)
    # L(0) = 10 lies far above delta_0.
    assert checker.check_floor_claim(True, [F(1)], (F(10), F(0), F(1)), deltas)
    # A certificate that is negative at n = 1.
    assert checker.check_floor_claim(True, [F(-3), F(1)], ODD_FLOOR, deltas)


def test_odd_floor_anchor():
    deltas = checker.interior_pivots(F(2), F(1), 20)
    assert checker.check_floor_claim(True, [F(1)], ODD_FLOOR, deltas, must_certify=True) == []
    assert checker.check_floor_claim(False, None, ODD_FLOOR, deltas, must_certify=True)
    assert checker.check_floor_claim(False, None, ODD_FLOOR, deltas) == []


def test_cesaro_family_is_diagonal():
    d, s = checker.tridiagonal(checker.LinearFamily(F(0), F(1), 12), 10)
    assert all(x == 0 for x in s)


def test_loop_counts_each_failure(monkeypatch, tmp_path):
    good = certify_output(tmp_path, "linear:2,1", 1)
    bad = json.loads(json.dumps(good))
    bad["report"]["determinant"] = "1"
    outputs = iter([good, bad, {"error": "Traceback: boom"}])
    monkeypatch.setattr(worker, "run_call", lambda *args: (0.01, next(outputs)))
    loop = worker.Loop(None, str(tmp_path / "unused.json"), Verifier())
    call = Call("certify", F(2), F(1), 1)
    for _ in range(3):
        loop.send(call, None)
    assert loop.attempted == 3
    assert len(loop.failures) == 2


def test_tracer_patches_aliases_and_restores(tmp_path):
    import hypomean.cli
    import hypomean.matrices
    import hypomean.positivity
    original = hypomean.positivity.finite_section
    tracer = Tracer()
    tracer.install()
    try:
        assert hypomean.positivity.finite_section is not original
        # Called through the module, as the benchmark does; the name this
        # file imported directly is not a hypomean alias and stays unwrapped.
        hypomean.cli.main(["certify", "--weights", "linear:2,1", "--N", "6",
                           "--json", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    assert hypomean.positivity.finite_section is original
    assert hypomean.cli.certify is hypomean.positivity.certify
    totals = tracer.layer_totals()
    assert totals["matrices.finite_section"]["calls"] == 1
    assert totals["cli.main"]["calls"] == 1
    assert "hypomean.positivity.finite_section" in tracer.aliases["matrices.finite_section"]
    wall = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    self_sum = sum(t["self_s"] for t in totals.values())
    assert all(t["self_s"] >= 0 for t in totals.values())
    assert self_sum == pytest.approx(wall)


def test_schedules_repeat_per_seed_and_keep_their_anchors():
    from workloads import WORKLOADS, make_schedule
    for workload in WORKLOADS:
        assert make_schedule(workload, 5) == make_schedule(workload, 5)
        assert make_schedule(workload, 5) != make_schedule(workload, 6)
    specs = {(c.spec, c.flags) for c in make_schedule("certify_sections", 5)}
    assert {("linear:2,1", ("--bounds",)), ("linear:1,1", ()), ("linear:3,1", ()),
            ("linear:1,5", ())} <= specs
    floors = make_schedule("floor_search", 5)
    assert any(c.anchor and c.spec == "linear:2,1" and c.floor == ODD_FLOOR for c in floors)
    assert any(c.spec == "linear:0,1" for c in floors)
