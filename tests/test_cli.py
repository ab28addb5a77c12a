import json
import math
import subprocess
import sys

import numpy as np
import pytest

from netred.cli import main
from netred.linalg import SYMMETRY_RTOL
from netred.netfile import FileFormatError, dump_json, generate_example, network_from_payload

from .support import PATH5_AEP_PROJECTION

BOUNDED = "must be a finite number of magnitude at most 1e+100"


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
        network_from_payload(payload)

    def test_random_aep_is_almost_equitable(self):
        from netred.graphcore import is_almost_equitable

        payload = generate_example("random-aep", seed=42)
        ns, pi, _ = network_from_payload(payload)
        assert is_almost_equitable(ns.laplacian, pi)

    def test_random_examples_deterministic_per_seed(self):
        a = generate_example("random-general", seed=7)
        b = generate_example("random-general", seed=7)
        assert dump_json(a) == dump_json(b)

    def test_negative_seed_exits_2_with_kind_flags(self, capsys):
        assert main(["example", "k3-aep", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["kind"] == "flags"

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

    @pytest.mark.parametrize("edge", [[2, 1, 1.0], [1, 2, 0.5]])
    def test_duplicate_edge_exits_2_with_its_field(self, tmp_path, capsys, edge):
        # the field path indexes the list from 0; the pair is named by 1-based nodes
        payload = generate_example("k3-aep")
        payload["edges"].append(edge)
        code, _ = _run(tmp_path, payload)
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "schema"
        assert err["field"] == "edges[3]"
        assert err["message"] == "edges[3]: duplicates the pair (1, 2) of edges[0]"

    @pytest.mark.parametrize(
        "n_nodes", [2**53 + 1, 2**64, 10**400], ids=["2^53+1", "2^64", "10^400"]
    )
    def test_node_counts_past_2_53_are_refused_by_the_partition(self, tmp_path, capsys, n_nodes):
        # the scan passes the edge [n - 1, n]; built into a graph before the partition is
        # read, it would be a self-loop as floats (2**53 + 1 has no float), or its indices
        # would fit no index array
        payload = generate_example("k3-aep")
        payload.update(n_nodes=n_nodes, edges=[[n_nodes - 1, n_nodes, 1.0]], partition=[[1]])
        code, _ = _run(tmp_path, payload)
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["field"] == "partition"
        assert err["message"] == "partition: node 2 not covered"

    @pytest.mark.parametrize(
        "edge_at, edge, field, message",
        [
            (3, [1, 2], "edges[3]", "must be [i, j, weight]"),
            (3, [1.0, 2, 1.0], "edges[3].i", "must be an integer node index"),
            (3, [1, True, 1.0], "edges[3].j", "must be an integer node index"),
            (3, [0, 2, 1.0], "edges[3].i", "must be in 1..3"),
            (3, [1, 4, 1.0], "edges[3].j", "must be in 1..3"),
            (3, [2, 2, 1.0], "edges[3]", "self-loop on node 2"),
            (3, [3, 1, 0.5], "edges[3]", "duplicates the pair (1, 3) of edges[1]"),
            (2, [2, 3, math.inf], "edges[2].weight", BOUNDED),
            (2, [2, 3, math.nan], "edges[2].weight", BOUNDED),
            (0, [1, 2, -0.5], "edges[0].weight", "negative weight -0.5"),
        ],
    )
    def test_edge_checks_name_field_and_message(self, edge_at, edge, field, message):
        payload = generate_example("k3-aep")
        payload["edges"][edge_at:] = [edge]
        with pytest.raises(FileFormatError) as err:
            network_from_payload(payload)
        assert err.value.field == field
        assert str(err.value) == f"{field}: {message}"

    def test_huge_n_nodes_with_a_one_node_partition_exits_2(self, tmp_path, capsys):
        # the uncovered node is found without a set of every node (10**12 would need
        # terabytes)
        payload = generate_example("k3-aep")
        payload.update(n_nodes=10**12, partition=[[1]])
        code, _ = _run(tmp_path, payload)
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["field"] == "partition"
        assert err["message"] == "partition: node 2 not covered"

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe\x00", b"[" * 200_000], ids=["not-utf8", "nested-too-deep"]
    )
    def test_unreadable_json_exits_2_with_kind_json(self, tmp_path, capsys, content):
        # a decoding error and the decoder's recursion limit, not a traceback (exit 1)
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["analyze", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "json"

    def test_missing_file_rejected(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("command", ["analyze", "example"])
    def test_unwritable_out_exits_2_with_kind_io(self, tmp_path, capsys, command):
        # a directory that does not exist: the write fails, and the run says so instead of
        # dying with a traceback (exit 1)
        path = tmp_path / "k3.json"
        path.write_text(dump_json(generate_example("k3-aep")))
        out = tmp_path / "absent" / "r.json"
        argv = [command, str(path) if command == "analyze" else "k3-aep", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "io"
        assert str(out) in err["message"]

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

    @pytest.mark.parametrize("name, value", [("A", -1e308), ("B", 1e308), ("E", 1e308)])
    def test_extreme_agent_entry_exits_2_with_its_field(self, tmp_path, capsys, name, value):
        # finite, but the assembled products overflow: A and E reached the report as
        # nan/inf, B broke the synchronization test
        payload = generate_example("k3-aep")
        payload["agent"][name] = [[value]]
        code, _ = _run(tmp_path, payload)
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["field"] == f"agent.{name}[0][0]"
        assert "magnitude" in err["message"]

    def test_extreme_edge_weight_exits_2_with_its_field(self, tmp_path, capsys):
        payload = generate_example("k3-aep")
        payload["edges"][0][2] = 1e300
        code, _ = _run(tmp_path, payload)
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["field"] == "edges[0].weight"

    @pytest.mark.parametrize("weight", [1e7, 1e9, 1e12])
    def test_large_edge_weights_pass_the_psd_test(self, tmp_path, weight):
        # the eigenvalue noise of L grows with its entries; so does the PSD threshold
        payload = {
            "n_nodes": 3,
            "edges": [[1, 2, weight], [1, 3, weight], [2, 3, weight]],
            "leaders": [2],
            "agent": {"A": [[-1, 0.2], [0.1, -2]], "B": [[1, 0], [0, 1]], "E": [[1], [0.5]]},
            "partition": [[1], [2, 3]],
        }
        code, report = _run(tmp_path, payload)
        assert code == 0
        assert report["bounds"]["rel_h2_bound"] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_must_be_an_integer(self, tmp_path, capsys, version):
        # True == 1.0 == 1 in Python, but neither is the integer the schema names
        payload = generate_example("k3-aep")
        payload["schema_version"] = version
        code, _ = _run(tmp_path, payload)
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["field"] == "schema_version"

    def test_ill_conditioned_agent_gives_finite_values(self, tmp_path):
        # lam B spans 1e94 against A = -1; the oracle's DC solve used to meet a singular matrix
        payload = generate_example("k3-aep")
        payload["agent"] = {"A": [[-1.0]], "B": [[1e100]], "E": [[1.0]]}
        for edge in payload["edges"]:
            edge[2] = 1e-6
        code, report = _run(tmp_path, payload, "--oracle-check")
        assert code == 0
        numbers = []

        def collect(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                for item in node:
                    collect(item)
            elif isinstance(node, float):
                numbers.append(node)

        collect([report["bounds"], report["oracle_checks"]])
        assert numbers and all(math.isfinite(x) for x in numbers)

    def test_ill_conditioned_agent_never_exits_1(self, tmp_path, capsys):
        # lam B reaches 1e34 against A = -1, where a Sylvester solve over the whole error
        # system meets eigenvalue sums lost in rounding: a failure must be a named entry
        payload = generate_example("k3-aep")
        payload["agent"] = {"A": [[-1.0]], "B": [[1e40]], "E": [[1.0]]}
        for edge in payload["edges"]:
            edge[2] = 1e-6
        code, report = _run(tmp_path, payload, "--oracle-check")
        assert code in (0, 3)
        assert capsys.readouterr().out == ""
        if code == 0:
            bounds = report["bounds"]
            for name in ("full_h2_norm", "true_h2_error", "full_hinf_norm", "true_hinf_error"):
                assert bounds[name] is not None or name in bounds["unavailable"], name

    def test_linalg_error_in_a_norm_route_is_ill_conditioned(self, tmp_path, monkeypatch):
        def fail(sys):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr("netred.norms.solve_lyapunov_with_kernel", fail)
        code, report = _run(tmp_path, generate_example("k3-aep"))
        assert code == 0
        bounds = report["bounds"]
        for name in ("full_h2_norm", "true_h2_error"):
            assert bounds[name] is None
            assert bounds["unavailable"][name] == "IllConditioned"
        assert bounds["abs_h2_bound"] is not None and bounds["true_hinf_error"] is not None

    def test_overflowed_bound_constants_are_ill_conditioned(self, tmp_path):
        # every entry is within MAX_MAGNITUDE, but rounding loses A's damping -1 beside its
        # rotation 1e50, and the auxiliary H2 constants overflow (NumPy warns as they do)
        payload = {
            "n_nodes": 3,
            "edges": [[1, 2, 1.0], [2, 3, 1.0], [1, 3, 1.0]],
            "leaders": [1],
            "partition": [[1], [2, 3]],
            "agent": {
                "A": [[-1.0, 1e50], [-1e50, -1.0]],
                "B": [[1.0, 0.0], [0.0, 1.0]],
                "E": [[1e50], [1.0]],
            },
        }
        with pytest.warns(RuntimeWarning):
            code, report = _run(tmp_path, payload)
        assert code == 0
        bounds = report["bounds"]
        assert bounds["s_max_h2"] is None and bounds["s_min_h2"] is None
        for name in ("abs_h2_bound", "rel_h2_bound"):
            assert bounds[name] is None
            assert bounds["unavailable"][name] == "IllConditioned"

    def test_overflowed_oracle_is_ill_conditioned(self, tmp_path):
        # only the quadrature oracle's value overflows; the bounds and norms are finite
        payload = {
            "n_nodes": 3,
            "edges": [[1, 2, 1e100], [2, 3, 1e100], [1, 3, 1e100]],
            "leaders": [1],
            "partition": [[1], [2, 3]],
            "agent": {"A": [[-1e-100]], "B": [[1.0]], "E": [[1e100]]},
        }
        with pytest.warns(RuntimeWarning):
            code, report = _run(tmp_path, payload, "--oracle-check")
        assert code == 0
        quadrature = report["oracle_checks"]["true_h2_error_quadrature"]
        assert quadrature == {"value": None, "unavailable": "IllConditioned"}
        assert report["bounds"]["true_h2_error"]["value"] > 0.0
        assert report["bounds"]["unavailable"] == {"hinf_exact_error": "NotSingleIntegrator"}

    def test_validators_name_field(self):
        payload = generate_example("k3-aep")
        payload["agent"]["B"] = [[1.0, 0.0]]
        with pytest.raises(FileFormatError) as err:
            network_from_payload(payload)
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

    def test_exact_reduction_at_large_weights_reads_zero(self, tmp_path):
        # singleton cells reduce exactly; at these weights the smallest computed eigenvalue
        # of L is 5.6e-7, and the consensus mode it gave counted as stable
        payload = {
            "n_nodes": 3,
            "edges": [[1, 2, 1477109767.777338], [1, 3, 2e9]],
            "leaders": [2],
            "agent": {"A": [[0.0]], "B": [[1.0]], "E": [[1.0]]},
            "partition": [[3], [2], [1]],
        }
        code, report = _run(tmp_path, payload, "--oracle-check")
        assert code == 0
        eigenvalues = report["analysis"]["eigenvalues"]
        assert eigenvalues["laplacian"][0] == 0.0 == eigenvalues["reduced_laplacian"][0]
        bounds = report["bounds"]
        for norm in ("hinf", "h2"):
            full = bounds[f"full_{norm}_norm"]["value"]
            assert bounds[f"true_{norm}_error"]["value"] <= 1e-10 * full

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


def _near_symmetric_k3(asym: float) -> dict:
    """K3 with weak edges and n=2 agents whose A is off symmetric by ``asym`` in one
    entry.  The symmetry threshold is SYMMETRY_RTOL * (1 + 100); relative to the
    assembled drift, whose entries are near 1, ``asym`` = 5e-9 is far above it."""
    payload = generate_example("k3-aep")
    payload["agent"] = {
        "A": [[-1.0, asym], [0.0, -1.0]],
        "B": [[100.0, 0.0], [0.0, 100.0]],
        "E": [[1.0], [0.5]],
    }
    for edge in payload["edges"]:
        edge[2] = 1e-6
    return payload


class TestSymmetryDecision:
    """Agent symmetry is decided once, relative to the agent matrices."""

    THRESHOLD = SYMMETRY_RTOL * 101.0

    def test_symmetric_within_tolerance_takes_the_dc_route(self, tmp_path):
        code, report = _run(tmp_path, _near_symmetric_k3(5e-9))
        assert code == 0
        assert report["bounds"]["full_hinf_norm"]["method"] == "dc_gain_closed_form"
        assert report["bounds"]["abs_hinf_bound"] is not None

    def test_twice_the_threshold_takes_the_sweep(self, tmp_path):
        code, report = _run(tmp_path, _near_symmetric_k3(2.0 * self.THRESHOLD))
        assert code == 0
        bounds = report["bounds"]
        assert bounds["full_hinf_norm"]["method"] == "frequency_sweep"
        for name in ("abs_hinf_bound", "rel_hinf_bound", "hinf_exact_error"):
            assert bounds[name] is None
            assert bounds["unavailable"][name] == "NotSymmetricDynamics"

    def test_near_symmetric_agents_are_analysed_as_their_symmetric_parts(self, tmp_path):
        near = _near_symmetric_k3(5e-9)
        near["agent"]["B"][1][0] = 3e-9
        exact = json.loads(json.dumps(near))
        for name in ("A", "B"):
            mat = np.array(near["agent"][name])
            exact["agent"][name] = (0.5 * (mat + mat.T)).tolist()
        assert exact["agent"] != near["agent"]
        _, want = _run(tmp_path, exact, "--oracle-check", name="exact.json")
        _, got = _run(tmp_path, near, "--oracle-check", name="near.json")
        assert got["bounds"] == want["bounds"]
        assert got["oracle_checks"] == want["oracle_checks"]


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
    def test_loose_aep_with_unstable_lost_eigenvalue_is_refused(self, tmp_path, capsys):
        # sigma(L) = {0, 3, 3.6} synchronizes, the lost eigenvalue 3.15 leaves A - lam B
        # unstable: a named refusal, not a traceback
        payload = {
            "n_nodes": 3,
            "edges": [[1, 2, 1.0], [1, 3, 1.3], [2, 3, 1.0]],
            "leaders": [1],
            "agent": {"A": [[-1, -3.15], [3.15, 0.01]], "B": [[0, -1], [1, 0]], "E": [[1], [0]]},
            "partition": [[1], [2, 3]],
            "options": {"tolerances": {"aep_rtol": 0.2}},
        }
        code, report = _run(tmp_path, payload)
        assert code == 3 and report is None
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "NotHurwitz"

    def test_aep_rtol_decides_analysis_and_bounds_alike(self, tmp_path):
        code, report = _run(tmp_path, _near_aep_triangle())
        assert code == 0
        assert report["analysis"]["aep"] is True
        assert report["bounds"]["aep"] is True
        assert report["bounds"]["abs_h2_bound"] is not None
        assert report["bounds"]["triangle_h2_bound"] is None
        assert "l_aep" not in report

    @pytest.mark.parametrize("eps, rtol", [(1e-7, 1e-6), (1e-4, 1e-3)])
    def test_loose_aep_leaves_the_dc_oracle_unavailable(self, tmp_path, eps, rtol):
        # path 1-2-3-4 with weights 1, 2, 1 + eps: {{1, 4}, {2, 3}} passes the AEP test
        # under rtol, but -L fails the DC route's own witness test CA = XC
        payload = {
            "n_nodes": 4,
            "edges": [[1, 2, 1.0], [2, 3, 2.0], [3, 4, 1.0 + eps]],
            "leaders": [1],
            "agent": {"A": [[0.0]], "B": [[1.0]], "E": [[1.0]]},
            "partition": [[1, 4], [2, 3]],
            "options": {"tolerances": {"aep_rtol": rtol}},
        }
        code, report = _run(tmp_path, payload, "--oracle-check")
        assert code == 0 and report["analysis"]["aep"] is True
        checks = report["oracle_checks"]
        assert checks["true_h2_error_quadrature"]["relative_gap"] <= 1e-3
        dc = checks["true_hinf_error_dc"]
        assert dc["value"] is None and dc["unavailable"] == "WitnessInvalid"
        assert dc["message"].startswith("CA != XC (residual ")

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
