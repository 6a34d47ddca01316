import dataclasses
import json

import pytest

import hypomean.cli as cli
from hypomean import ODD_Q, ODD_TRIDIAGONAL, Polynomial, RationalFunction
from hypomean.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_NOT_POSITIVE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


class TestCertifyUsageErrors:
    def test_short_table_names_the_weights_q_n_needs(self, capsys):
        assert main(["certify", "--weights", "table:1,1,1", "--N", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Q_2 needs the weights w_0..w_3" in err
        assert "weight table has 3 entries" in err

    def test_table_shorter_than_the_hypothesis_prefix(self, capsys):
        assert main(["certify", "--weights", "table:1,1", "--N", "5"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Q_5 needs the weights w_0..w_6" in err
        assert "weight table has 2 entries" in err


class TestZeroWeights:
    """A weight of zero that a section divides by is named in the error."""

    @pytest.mark.parametrize("args, message", [
        (["certify", "--weights", "table:1,2,0,3", "--N", "1"], "Q_1 divides by w_2 = 0"),
        (["certify", "--weights", "table:1,0,2,3", "--N", "1", "--override-hypotheses"],
         "Q_1 divides by w_1 = 0"),
        (["dump", "--kind", "Q", "--weights", "table:1,0,2", "--N", "1"],
         "Q_1 divides by w_1 = 0"),
        (["dump", "--kind", "B", "--weights", "table:1,0,2", "--N", "1"],
         "B_1 divides by w_1 = 0"),
        (["dump", "--kind", "P-closed", "--weights", "table:1,2,0,3", "--N", "1"],
         "P-closed_1 divides by w_2 = 0"),
        (["dump", "--kind", "P-oracle", "--weights", "table:1,2,0,3", "--N", "1"],
         "P-oracle_1 divides by w_2 = 0"),
    ])
    def test_error_names_the_weight(self, args, message, capsys):
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err == f"hypomean: error: {message}\n"

    def test_mean_matrix_divides_by_no_weight(self, capsys):
        assert main(["dump", "--kind", "M", "--weights", "table:1,0,2", "--N", "1"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["entries"] == [["1", "0"], ["1", "0"]]

    def test_refusal_comes_before_the_zero_weight(self, capsys):
        args = ["certify", "--weights", "table:1,0,2,3", "--N", "1"]
        assert main(args) == EXIT_INCONCLUSIVE
        assert "refused" in json.loads(capsys.readouterr().out)["notes"]


class TestMinorsFallback:
    def test_notes_name_each_requested_check_it_skips(self, capsys):
        # The column factor of this table vanishes at index 3 but not at 2.
        args = ["certify", "--weights", "table:1,2,4,3,3", "--N", "3",
                "--cross-check-minors", "--bounds"]
        assert main(args) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["used_minors_fallback"]
        assert report["minors_agree"] is None and report["bounds"] is None
        assert report["notes"] == (
            "tridiagonal route unavailable (column factor vanishes at index 3 but "
            "not 2); using exact leading minors; all leading minors positive; "
            "bound checks skipped: no pivots on the minors route; "
            "minor cross-check skipped: no pivots on the minors route")


class TestExitCodes:
    @pytest.mark.parametrize("args, code", [
        (["dump", "--N", "2", "--kind", "M"], EXIT_OK),
        (["certify", "--weights", "linear:2,1", "--N", "5"], EXIT_OK),
        (["certify", "--weights", "linear:1,5", "--N", "10"], EXIT_NOT_POSITIVE),
        (["certify", "--weights", "table:1,1/100,1/100", "--N", "0"], EXIT_INCONCLUSIVE),
        (["symbolic", "--weights", "linear:3,1", "--emit", "tridiag"], EXIT_OK),
    ])
    def test_subcommand_exit_codes(self, args, code, capsys):
        assert main(args) == code
        json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("sub", ["dump", "certify"])
    def test_negative_n_is_a_usage_error(self, sub, capsys):
        assert main([sub, "--N", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == "hypomean: error: N must be nonnegative\n"

    @pytest.mark.parametrize("args", [["certify", "--N", "1"], ["dump", "--N", "1"],
                                      ["paper-check"]], ids=lambda args: args[0])
    def test_unwritable_json_path_is_a_usage_error(self, args, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert main(args + ["--json", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("hypomean: error: ")
        assert not path.exists()

    def test_missing_n_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify"])
        assert exc.value.code == EXIT_USAGE


class TestSymbolicUsageErrors:
    @pytest.mark.parametrize("emit, message", [
        ("qdiag", "linear weight family only"),
        ("tridiag", "linear weight family only"),
        ("certificate", "needs a known delta floor"),
    ])
    def test_table_family_is_a_usage_error(self, emit, message, capsys):
        args = ["symbolic", "--weights", "table:1,2,3", "--emit", emit]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("hypomean: error: ")
        assert message in err

    def test_family_without_a_floor_has_no_certificate(self, capsys):
        args = ["symbolic", "--weights", "linear:1,1", "--emit", "certificate"]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "hypomean: error: certificate emission needs a known delta floor, which is "
            "known for linear:ALPHA,BETA with ALPHA = 2*BETA only, such as linear:2,1\n")

    @pytest.mark.parametrize("spec", ["linear:4,2", "linear:1,1/2", "linear:6,3"])
    def test_every_family_the_message_names_has_a_certificate(self, spec, capsys):
        args = ["symbolic", "--weights", spec, "--emit", "certificate"]
        assert main(args) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["reference_ratio"] == "1"


class TestSymbolicCertificate:
    ARGS = ["symbolic", "--weights", "linear:2,1", "--emit", "certificate"]

    def test_holding_certificate_exits_ok(self, tmp_path):
        path = tmp_path / "cert.json"
        assert main(self.ARGS + ["--json", str(path)]) == EXIT_OK
        payload = json.loads(path.read_text())
        assert payload["nonneg_for_n_ge_1"] and payload["base_holds"]

    def test_multiple_of_the_odd_family_uses_its_floor(self, capsys):
        # Q depends on the weights only through beta/alpha.
        assert main(["symbolic", "--weights", "linear:4,2",
                     "--emit", "certificate"]) == EXIT_OK
        scaled = json.loads(capsys.readouterr().out)
        assert main(self.ARGS) == EXIT_OK
        odd = json.loads(capsys.readouterr().out)
        assert scaled.pop("family") == "linear:4,2"
        odd.pop("family")
        assert scaled == odd
        assert scaled["reference_ratio"] == "1"

    @pytest.mark.parametrize("failed", ["nonneg_for_n_ge_1", "base_holds"])
    def test_failed_certificate_is_inconclusive(self, failed, tmp_path, monkeypatch):
        real = cli.induction_certificate

        def weakened(weights, floor):
            return dataclasses.replace(real(weights, floor), **{failed: False})

        monkeypatch.setattr(cli, "induction_certificate", weakened)
        path = tmp_path / "cert.json"
        assert main(self.ARGS + ["--json", str(path)]) == EXIT_INCONCLUSIVE
        assert json.loads(path.read_text())[failed] is False


class TestCertifyPretty:
    def test_values_past_the_digit_limit_print_their_sizes(self, capsys):
        # At N=400 the determinant of linear:2,1 has more digits than the
        # default int-to-str limit (4300).
        args = ["certify", "--weights", "linear:2,1", "--N", "400"]
        assert main(args + ["--pretty"]) == EXIT_OK
        pretty = capsys.readouterr().out
        assert main(args) == EXIT_OK
        det = json.loads(capsys.readouterr().out)["determinant"]
        num, den = det.split("/")
        assert len(num) > 4300
        assert f"determinant: <exact rational with {len(num)}/{len(den)} digits>" in pretty
        assert "verdict:     CertifiedPositive" in pretty


class TestPaperCheck:
    def test_bundle_passes(self, capsys):
        assert main(["paper-check"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.rstrip().endswith("all checks passed")

    # A wrong ODD_Q also fails the tridiagonal check, which compares the last
    # pivot of the eliminated section with the paper's q_NN.
    @pytest.mark.parametrize("name, forms, field, failures", [
        ("ODD_Q", ODD_Q, "diagonal", [
            "q-closed-form-agreement: symbolic Q of linear:2,1 is not the "
            "odd-weights closed form",
            "tridiagonal-closed-forms: last diagonal is not q_NN"]),
        ("ODD_TRIDIAGONAL", ODD_TRIDIAGONAL, "d", [
            "tridiagonal-closed-forms: symbolic band of linear:2,1 is not the "
            "odd-weights closed form"]),
    ], ids=["ODD_Q", "ODD_TRIDIAGONAL"])
    def test_a_wrong_closed_form_fails_its_checks(self, name, forms, field, failures,
                                                  monkeypatch, capsys):
        rf = getattr(forms, field)
        coeffs = list(rf.num.coeffs)
        coeffs[0] += 1
        wrong = RationalFunction(Polynomial(coeffs, rf.var), rf.den)
        monkeypatch.setattr(cli, name, dataclasses.replace(forms, **{field: wrong}))
        assert main(["paper-check"]) == EXIT_NOT_POSITIVE
        lines = capsys.readouterr().out.splitlines()
        failed = [line.rsplit("  (", 1)[0] for line in lines if line.startswith("[FAIL]")]
        assert failed == [f"[FAIL] {detail}" for detail in failures]
        assert lines[-1] == "SOME CHECKS FAILED"
