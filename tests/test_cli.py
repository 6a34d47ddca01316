import dataclasses
import json

import pytest

import hypomean.cli as cli
from hypomean.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, main


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


class TestSymbolicCertificate:
    ARGS = ["symbolic", "--weights", "linear:2,1", "--emit", "certificate"]

    def test_holding_certificate_exits_ok(self, tmp_path):
        path = tmp_path / "cert.json"
        assert main(self.ARGS + ["--json", str(path)]) == EXIT_OK
        payload = json.loads(path.read_text())
        assert payload["nonneg_for_n_ge_1"] and payload["base_holds"]

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
