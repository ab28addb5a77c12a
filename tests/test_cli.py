import json
import math
import subprocess
import sys

import numpy as np
import pytest

from netred.cli import main
from netred.netfile import (
    FileFormatError,
    dump_json,
    generate_example,
    network_from_payload,
    validate_network_payload,
)

from .support import PATH5_AEP_PROJECTION


def _run(tmp_path, payload, *flags, name="net.json"):
    path = tmp_path / name
    path.write_text(dump_json(payload))
    out = tmp_path / "report.json"
    code = main(["analyze", str(path), "--out", str(out), *flags])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestExamples:
    def test_paper_section7_payload(self):
        payload = generate_example("paper-section7")
        assert payload["n_nodes"] == 5
        assert payload["leaders"] == [1]
        assert payload["partition"] == [[1, 2, 3], [4, 5]]
        assert payload["edges"] == [[1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0], [4, 5, 1.0]]

    def test_k3_payload(self):
        payload = generate_example("k3-aep")
        assert payload["partition"] == [[1], [2, 3]]
        validate_network_payload(payload)

    def test_random_aep_is_almost_equitable(self):
        from netred.graphcore import is_almost_equitable

        payload = generate_example("random-aep", seed=42)
        ns, pi, _ = network_from_payload(payload)
        assert is_almost_equitable(ns.laplacian, pi)

    def test_random_examples_deterministic_per_seed(self):
        a = generate_example("random-general", seed=7)
        b = generate_example("random-general", seed=7)
        assert dump_json(a) == dump_json(b)

    def test_unknown_example_exits_2(self, capsys):
        assert main(["example", "does-not-exist"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "UnknownExample"


class TestValidation:
    def test_overlapping_partition_names_node(self, tmp_path, capsys):
        payload = generate_example("k3-aep")
        payload["partition"] = [[1, 2], [2, 3]]
        code, _ = _run(tmp_path, payload)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "2" in err["error"]["message"]

    def test_unknown_field_rejected(self, tmp_path, capsys):
        payload = generate_example("k3-aep")
        payload["unexpected"] = 1
        code, _ = _run(tmp_path, payload)
        assert code == 2

    def test_negative_weight_rejected(self, tmp_path):
        payload = generate_example("k3-aep")
        payload["edges"][0][2] = -1.0
        code, _ = _run(tmp_path, payload)
        assert code == 2

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "field, path",
        [
            ("agent.A[0][0]", ("agent", "A", 0, 0)),
            ("agent.B[0][0]", ("agent", "B", 0, 0)),
            ("agent.E[0][0]", ("agent", "E", 0, 0)),
            ("edges[0].weight", ("edges", 0, 2)),
            ("options.tolerances.aep_rtol", ("options", "tolerances", "aep_rtol")),
        ],
    )
    def test_non_finite_number_exits_2_with_its_field(self, tmp_path, capsys, field, path, value):
        # json reads NaN, Infinity and -Infinity; validation must refuse them by field path
        payload = generate_example("k3-aep")
        payload["options"]["tolerances"] = {}
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        net = tmp_path / "net.json"
        net.write_text(json.dumps(payload))
        assert main(["analyze", str(net)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["field"] == field
        assert "finite" in err["message"]

    def test_validators_name_field(self):
        payload = generate_example("k3-aep")
        payload["agent"]["B"] = [[1.0, 0.0]]
        with pytest.raises(FileFormatError) as err:
            validate_network_payload(payload)
        assert "agent.B" in str(err.value)


class TestAnalyze:
    def test_section7_requires_triangle_flag(self, tmp_path, capsys):
        payload = generate_example("paper-section7")
        code, _ = _run(tmp_path, payload)
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "NotAEP"

    def test_section7_with_triangle(self, tmp_path):
        payload = generate_example("paper-section7")
        code, report = _run(tmp_path, payload, "--triangle")
        assert code == 0
        assert report["analysis"]["aep"] is False
        l_aep = np.array(report["l_aep"]["matrix"])
        assert np.abs(l_aep - PATH5_AEP_PROJECTION).max() <= 1e-12
        assert report["l_aep"]["has_negative_weights"] is True
        bounds = report["bounds"]
        assert bounds["triangle_h2_bound"] >= bounds["true_h2_error"]["value"]
        assert bounds["triangle_hinf_bound"] >= bounds["true_hinf_error"]["value"]

    def test_k3_report_values(self, tmp_path):
        payload = generate_example("k3-aep")
        code, report = _run(tmp_path, payload)
        assert code == 0
        assert report["analysis"]["aep"] is True
        bounds = report["bounds"]
        assert bounds["abs_h2_bound"] == 0.0
        assert bounds["true_h2_error"]["value"] <= 1e-8
        assert "l_aep" not in report

    def test_norms_subset_flag(self, tmp_path):
        payload = generate_example("k3-aep")
        code, report = _run(tmp_path, payload, "--norms", "h2")
        assert code == 0
        assert report["bounds"]["true_h2_error"] is not None
        assert report["bounds"]["true_hinf_error"] is None

    def test_oracle_check_block(self, tmp_path):
        payload = generate_example("k3-aep")
        code, report = _run(tmp_path, payload, "--oracle-check")
        assert code == 0
        checks = report["oracle_checks"]
        assert checks["true_h2_error_quadrature"]["relative_gap"] <= 1e-3
        assert checks["true_hinf_error_dc"]["absolute_gap"] <= 1e-9

    def test_file_options_drive_behavior(self, tmp_path):
        payload = generate_example("k3-aep")
        payload["options"] = {"norms": ["h2"], "oracle_check": True}
        code, report = _run(tmp_path, payload)
        assert code == 0
        assert report["bounds"]["true_hinf_error"] is None
        assert "true_h2_error_quadrature" in report["oracle_checks"]

    def test_disconnected_refused(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "n_nodes": 4,
            "edges": [[1, 2, 1.0], [3, 4, 1.0]],
            "leaders": [1],
            "agent": {"A": [[0.0]], "B": [[1.0]], "E": [[1.0]]},
            "partition": [[1, 2], [3, 4]],
        }
        code, _ = _run(tmp_path, payload)
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "Disconnected"

    def test_unsynchronized_refused(self, tmp_path, capsys):
        payload = generate_example("k3-aep")
        payload["agent"] = {"A": [[1.0]], "B": [[0.0]], "E": [[1.0]]}
        code, _ = _run(tmp_path, payload)
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "NotSynchronized"

    def test_non_aep_multivariable_with_triangle_refused(self, tmp_path, capsys):
        payload = generate_example("paper-section7")
        payload["agent"] = {"A": [[-1.0]], "B": [[1.0]], "E": [[1.0]]}
        code, _ = _run(tmp_path, payload, "--triangle")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "NotSingleIntegrator"


class TestRankDeficientInput:
    def test_relative_hinf_bound_is_null_with_a_reason(self, tmp_path):
        # E has rank 1 < min(n, r) = 2, so s_min_hinf = 0 and no relative bound is finite
        payload = {
            "n_nodes": 4,
            "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0], [4, 1, 1.0]],
            "leaders": [2],
            "agent": {"A": [[-1, 0], [0, -2]], "B": [[1, 0], [0, 1]], "E": [[1, 1], [0, 0]]},
            "partition": [[1], [2, 4], [3]],
        }
        code, report = _run(tmp_path, payload)
        assert code == 0
        bounds = report["bounds"]
        assert bounds["aep"] is True
        assert bounds["s_min_hinf"] == 0.0
        assert bounds["rel_hinf_bound"] is None
        assert bounds["unavailable"]["rel_hinf_bound"] == "RankDeficientInput"
        assert bounds["abs_hinf_bound"] >= bounds["true_hinf_error"]["value"] > 0.0


def _near_aep_triangle():
    """Triangle whose partition {{1}, {2, 3}} is almost equitable only within 1e-4."""
    return {
        "schema_version": 1,
        "n_nodes": 3,
        "edges": [[1, 2, 1.0], [1, 3, 1.0001], [2, 3, 1.0]],
        "leaders": [1],
        "agent": {"A": [[0.0]], "B": [[1.0]], "E": [[1.0]]},
        "partition": [[1], [2, 3]],
        "options": {"tolerances": {"aep_rtol": 1e-2}},
    }


class TestFileTolerances:
    def test_aep_rtol_decides_analysis_and_bounds_alike(self, tmp_path):
        code, report = _run(tmp_path, _near_aep_triangle())
        assert code == 0
        assert report["analysis"]["aep"] is True
        assert report["bounds"]["aep"] is True
        assert report["bounds"]["abs_h2_bound"] is not None
        assert report["bounds"]["triangle_h2_bound"] is None
        assert "l_aep" not in report

    def test_zero_eig_tol_override_refuses_as_disconnected(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "n_nodes": 4,
            "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0], [4, 1, 1.0]],
            "leaders": [1],
            "agent": {"A": [[0.0]], "B": [[1.0]], "E": [[1.0]]},
            "partition": [[1, 3], [2, 4]],
            "options": {"tolerances": {"zero_eig_tol": 10}},
        }
        code, _ = _run(tmp_path, payload)
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "Disconnected"


class TestReportContract:
    def test_round_trip(self, tmp_path):
        payload = generate_example("random-aep", seed=3)
        code, report = _run(tmp_path, payload)
        assert code == 0
        assert json.loads(dump_json(report)) == report

    def test_deterministic_apart_from_timings(self, tmp_path):
        payload = generate_example("random-aep", seed=5)
        _, first = _run(tmp_path, payload, name="a.json")
        _, second = _run(tmp_path, payload, name="b.json")
        first.pop("timings")
        second.pop("timings")
        assert dump_json(first) == dump_json(second)

    def test_report_echoes_input(self, tmp_path):
        payload = generate_example("k3-aep")
        _, report = _run(tmp_path, payload)
        assert report["input"] == payload
        assert report["schema_version"] == 1

    def test_eigenvalues_reported(self, tmp_path):
        payload = generate_example("k3-aep")
        _, report = _run(tmp_path, payload)
        lams = report["analysis"]["eigenvalues"]["laplacian"]
        np.testing.assert_allclose(lams, [0.0, 3.0, 3.0], atol=1e-9)
        lams_hat = report["analysis"]["eigenvalues"]["reduced_laplacian"]
        np.testing.assert_allclose(lams_hat, [0.0, 3.0], atol=1e-9)


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "netred.cli", "example", "k3-aep"],
            capture_output=True,
            text=True,
            check=True,
        )
        payload = json.loads(out.stdout)
        assert payload["n_nodes"] == 3
