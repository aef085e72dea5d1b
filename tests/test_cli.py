"""End-to-end command-line behavior: output text, JSON payloads, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import rand_consistent_trfpr
from fuzzylad import MAX_LP_ALTERNATIVES, MAX_SIGMA, InfeasibleError, load_problem, save_problem
from fuzzylad.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
ADDITIVE = str(PROBLEMS / "example-additive.json")
CONSISTENT = str(PROBLEMS / "example-additive-consistent.json")
RATIO = str(PROBLEMS / "example-ratio.json")
PORTFOLIO = str(PROBLEMS / "portfolio.json")

UTILITY_LINE = re.compile(r"^  A\d: T\(-?\d\.\d{4}, -?\d\.\d{4}, -?\d\.\d{4}, -?\d\.\d{4}\)  Mag = -?\d\.\d{4}$")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m fuzzylad`` in a fresh interpreter, importing this checkout's package."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "fuzzylad", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


class TestValidate:
    def test_additive_file(self, capsys):
        code, out, err = run_cli(capsys, "validate", ADDITIVE)
        assert code == 0
        assert out == "valid additive problem (3 alternatives)\n"
        assert err == ""

    def test_ratio_file(self, capsys):
        code, out, _ = run_cli(capsys, "validate", RATIO)
        assert code == 0
        assert out == "valid multiplicative problem (3 alternatives)\n"

    def test_hierarchy_file(self, capsys):
        code, out, _ = run_cli(capsys, "validate", PORTFOLIO)
        assert code == 0
        assert out == "valid ahp problem (4 alternatives, 3 criteria)\n"

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "validate", PORTFOLIO, "--json")
        assert code == 0
        assert json.loads(out) == {"valid": True, "kind": "ahp", "n": 4}

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_bad_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert err.startswith("error:")

    def test_broken_reciprocity_exits_2(self, capsys, tmp_path):
        doc = json.loads(Path(ADDITIVE).read_text())
        doc["matrix"][1][0] = [0.2, 0.3, 0.3, 0.5]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert err.startswith("invalid:")


class TestConsistency:
    def test_inconsistent_report(self, capsys):
        code, out, _ = run_cli(capsys, "consistency", ADDITIVE)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "verdict: inconsistent"
        assert lines[1] == "max violation: 0.1"
        assert lines[2] == "worst triple: (1, 2, 3)"

    def test_consistent_report(self, capsys):
        code, out, _ = run_cli(capsys, "consistency", CONSISTENT)
        assert code == 0
        assert out.splitlines()[0] == "verdict: consistent"

    def test_tolerance_flag_relaxes_the_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "consistency", ADDITIVE, "--tol", "0.15")
        assert code == 0
        assert out.splitlines()[0] == "verdict: consistent"

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "consistency", ADDITIVE, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["consistent"] is False
        assert payload["max_violation"] == pytest.approx(0.1, abs=1e-12)
        assert payload["worst_triple"] == [1, 2, 3]
        assert payload["tol"] > 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exits_2_naming_the_flag(self, capsys, tol):
        code, out, err = run_cli(capsys, "consistency", CONSISTENT, f"--tol={tol}")
        assert code == 2 and out == ""
        assert err.startswith("invalid: --tol:")

    def test_ratio_file_uses_the_multiplicative_check(self, capsys):
        code, out, _ = run_cli(capsys, "consistency", RATIO)
        assert code == 0
        assert out.splitlines()[0] == "verdict: inconsistent"

    def test_hierarchy_file_is_rejected(self, capsys):
        code, _, err = run_cli(capsys, "consistency", PORTFOLIO)
        assert code == 2
        assert err.startswith("invalid:")


class TestUtility:
    def test_additive_default_model(self, capsys):
        code, out, _ = run_cli(capsys, "utility", ADDITIVE)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "model: punit"
        for line in lines[1:4]:
            assert UTILITY_LINE.match(line), line
        assert lines[4] == "objective: 0.2000"
        assert lines[5] == "ranking: A1 > A2 > A3"

    def test_model_flag(self, capsys):
        for model in ("p", "p0", "punit"):
            code, out, _ = run_cli(capsys, "utility", ADDITIVE, "--model", model)
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == f"model: {model}"
            assert lines[4] == "objective: 0.2000"

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "utility", ADDITIVE, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "punit"
        assert len(payload["utilities"]) == 3
        assert all(len(u) == 4 for u in payload["utilities"])
        assert payload["objective"] == pytest.approx(0.2, abs=1e-9)
        assert payload["ranking"] == "A1 > A2 > A3"
        assert payload["ranking_groups"] == [[0], [1], [2]]

    def test_ratio_file_defaults_to_the_base_model(self, capsys):
        code, out, _ = run_cli(capsys, "utility", RATIO)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "model: p"
        assert lines[4] == "objective: 0.2000"
        assert lines[5] == "ranking: A1 > A2 > A3"

    def test_normalized_model_on_a_ratio_file_switches_family(self, capsys):
        code, out, _ = run_cli(capsys, "utility", RATIO, "--model", "psigma")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "model: qsigma"
        assert lines[4] == "objective: 0.6000"

    def test_normalized_model_needs_a_target(self, capsys):
        code, _, err = run_cli(capsys, "utility", ADDITIVE, "--model", "psigma")
        assert code == 2
        assert "target" in err

    def test_sigma_flag_pins_the_component_sums(self, capsys):
        code, out, _ = run_cli(
            capsys, "utility", ADDITIVE, "--model", "psigma",
            "--sigma", "0.8,0.9,1.1,1.2", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "psigma"
        sums = [sum(u[comp] for u in payload["utilities"]) for comp in range(4)]
        assert sums == pytest.approx([0.8, 0.9, 1.1, 1.2], abs=1e-9)

    def test_sigma_flag_must_have_four_components(self, capsys):
        code, _, err = run_cli(
            capsys, "utility", ADDITIVE, "--model", "psigma", "--sigma", "0.8,0.9,1.1"
        )
        assert code == 2
        assert err.startswith("invalid:")

    def test_hierarchy_file_is_rejected(self, capsys):
        code, _, err = run_cli(capsys, "utility", PORTFOLIO)
        assert code == 2
        assert "ahp" in err

    @pytest.mark.parametrize(
        "path, model, options",
        [
            (ADDITIVE, "punit", []),
            (ADDITIVE, "p0", ["--model", "p0"]),
            (ADDITIVE, "p", ["--model", "p"]),
            (RATIO, "p", []),
            (RATIO, "punit", ["--model", "punit"]),
            (RATIO, "p0", ["--model", "p0"]),
        ],
        ids=["additive-default", "additive-p0", "additive-p", "ratio-default", "ratio-punit",
             "ratio-p0"],
    )
    def test_sigma_flag_under_a_model_without_a_target_exits_2(self, capsys, path, model, options):
        code, out, err = run_cli(capsys, "utility", path, *options, "--sigma", "1,1,1,1")
        assert code == 2
        assert out == ""
        assert err == f"invalid: --sigma: model {model} takes no total-utility target\n"

    def test_mag_weights_flag(self, capsys):
        code, out, _ = run_cli(capsys, "utility", ADDITIVE, "--mag-weights", "0.125,0.375")
        assert code == 0
        assert out.splitlines()[5] == "ranking: A1 > A2 > A3"

    def test_bad_mag_weights_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "utility", ADDITIVE, "--mag-weights", "0.5,0.5")
        assert code == 2
        assert err.startswith("invalid:")
        code, _, err = run_cli(capsys, "utility", ADDITIVE, "--mag-weights", "0.25")
        assert code == 2

    def test_unknown_model_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["utility", ADDITIVE, "--model", "qsigma"])
        capsys.readouterr()

    def test_repeated_runs_are_byte_identical(self, capsys):
        outputs = set()
        for _ in range(3):
            _, out, _ = run_cli(capsys, "utility", ADDITIVE, "--json")
            outputs.add(out)
        assert len(outputs) == 1


class TestWeights:
    def test_additive_with_sigma_flag(self, capsys):
        code, out, _ = run_cli(capsys, "weights", ADDITIVE, "--sigma", "0.8,0.9,1.1,1.2")
        assert code == 0
        assert out.splitlines()[0] == "model: psigma"

    def test_ratio_file_with_stored_sigma(self, capsys):
        code, out, _ = run_cli(capsys, "weights", RATIO)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "model: qsigma"
        assert lines[4] == "objective: 0.6000"
        assert lines[5] == "ranking: A1 > A2 > A3"

    def test_component_sums_match_the_stored_target(self, capsys):
        code, out, _ = run_cli(capsys, "weights", RATIO, "--json")
        assert code == 0
        payload = json.loads(out)
        sums = [sum(u[comp] for u in payload["utilities"]) for comp in range(4)]
        assert sums == pytest.approx([0.8, 0.9, 1.1, 1.2], abs=1e-9)

    def test_missing_target_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "weights", ADDITIVE)
        assert code == 2
        assert "target" in err

    def test_hierarchy_file_is_rejected(self, capsys):
        code, _, err = run_cli(capsys, "weights", PORTFOLIO)
        assert code == 2


class TestAhp:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "ahp", PORTFOLIO)
        assert code == 0
        lines = out.splitlines()
        headers = [l for l in lines if l.startswith("criterion ")]
        assert len(headers) == 3
        assert headers[0].startswith("criterion 1 (weight 0.5000): objective ")
        first_objective = float(headers[0].rsplit(" ", 1)[1])
        assert first_objective == pytest.approx(0.9823, abs=5e-3)
        assert "global weights:" in lines
        global_at = lines.index("global weights:")
        assert len(lines[global_at + 1 : global_at + 5]) == 4
        for line in lines[global_at + 1 : global_at + 5]:
            assert UTILITY_LINE.match(line), line
        assert lines[-1] == "ranking: A1 > A2 > A4 > A3"

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "ahp", PORTFOLIO, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["criteria_weights"] == [0.5, 0.3, 0.2]
        assert len(payload["local_weights"]) == 3
        assert all(len(vec) == 4 for vec in payload["local_weights"])
        assert payload["ranking"] == "A1 > A2 > A4 > A3"
        assert payload["magnitudes"] == pytest.approx(
            [0.4082, 0.3699, 0.0652, 0.1567], abs=5e-3
        )
        assert "comparison" not in payload

    def test_compare_flag_text(self, capsys):
        code, out, _ = run_cli(capsys, "ahp", PORTFOLIO, "--compare")
        assert code == 0
        assert "comparison (criterion 1):" in out
        assert "comparison (criterion 3):" in out
        for method in ("lad", "amm", "gmm"):
            assert f"  {method}: deviation " in out

    def test_compare_flag_json(self, capsys):
        code, out, _ = run_cli(capsys, "ahp", PORTFOLIO, "--compare", "--json")
        assert code == 0
        blocks = json.loads(out)["comparison"]
        assert len(blocks) == 3
        first = blocks[0]
        assert first["lad"]["deviation"] == pytest.approx(0.9823, abs=5e-3)
        assert first["amm"]["deviation"] == pytest.approx(2.3955, abs=5e-3)
        assert first["gmm"]["deviation"] == pytest.approx(2.6843, abs=5e-3)
        for block in blocks:
            assert block["lad"]["deviation"] <= block["amm"]["deviation"] + 1e-9
            assert block["lad"]["deviation"] <= block["gmm"]["deviation"] + 1e-9

    def test_flat_file_is_rejected(self, capsys):
        code, _, err = run_cli(capsys, "ahp", ADDITIVE)
        assert code == 2
        assert err.startswith("invalid:")


class TestConvert:
    def test_additive_to_multiplicative(self, capsys, tmp_path):
        out_path = tmp_path / "ratio.json"
        code, out, _ = run_cli(
            capsys, "convert", ADDITIVE, "--to", "multiplicative", "--out", str(out_path)
        )
        assert code == 0
        assert out == f"wrote multiplicative problem to {out_path}\n"
        back = load_problem(out_path)
        assert back.kind == "multiplicative"
        assert back.scale == 9

    def test_round_trip_preserves_entries(self, capsys, tmp_path):
        mid = tmp_path / "mid.json"
        final = tmp_path / "final.json"
        run_cli(capsys, "convert", ADDITIVE, "--to", "multiplicative", "--out", str(mid))
        code, _, _ = run_cli(capsys, "convert", str(mid), "--to", "additive", "--out", str(final))
        assert code == 0
        original = load_problem(ADDITIVE).relation
        recovered = load_problem(final).relation
        for i in range(3):
            for j in range(3):
                assert recovered.entry(i, j).components == pytest.approx(
                    original.entry(i, j).components, abs=1e-12
                )

    def test_crisp_midpoint_maps_to_the_scale_root(self, capsys, tmp_path):
        doc = {
            "kind": "additive",
            "n": 2,
            "neutral": [0.5, 0.5, 0.5, 0.5],
            "matrix": [
                [[0.5, 0.5, 0.5, 0.5], [0.75, 0.75, 0.75, 0.75]],
                [[0.25, 0.25, 0.25, 0.25], [0.5, 0.5, 0.5, 0.5]],
            ],
        }
        src = tmp_path / "crisp.json"
        src.write_text(json.dumps(doc))
        out_path = tmp_path / "crisp-ratio.json"
        code, _, _ = run_cli(
            capsys, "convert", str(src), "--to", "multiplicative",
            "--scale", "9", "--out", str(out_path),
        )
        assert code == 0
        entry = load_problem(out_path).relation.entry(0, 1)
        assert entry.components == pytest.approx((3.0, 3.0, 3.0, 3.0), abs=1e-12)

    def test_same_kind_is_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "convert", ADDITIVE, "--to", "additive", "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        assert "already is additive" in err

    def test_hierarchy_file_is_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "convert", PORTFOLIO, "--to", "additive", "--out", str(tmp_path / "x.json")
        )
        assert code == 2

    def test_json_payload(self, capsys, tmp_path):
        out_path = tmp_path / "ratio.json"
        code, out, _ = run_cli(
            capsys, "convert", ADDITIVE, "--to", "multiplicative",
            "--out", str(out_path), "--json",
        )
        assert code == 0
        assert json.loads(out) == {"written": str(out_path), "kind": "multiplicative"}

    def test_out_into_a_missing_directory_names_the_target_the_same_every_run(self, tmp_path):
        # Two processes, since a message carrying the process id differs between them.
        target = tmp_path / "missing" / "ratio.json"
        argv = ["convert", ADDITIVE, "--to", "multiplicative", "--out", str(target)]
        first, second = (run_module(*argv) for _ in range(2))
        assert first.returncode == 1 and first.stdout == ""
        assert (second.returncode, second.stderr) == (1, first.stderr)
        err = first.stderr
        assert err.startswith("error: --out: ")
        assert repr(str(target)) in err
        assert ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    def test_out_onto_a_directory_leaves_no_temporary(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        code, out, err = run_cli(
            capsys, "convert", ADDITIVE, "--to", "multiplicative", "--out", str(target)
        )
        assert code == 1 and out == ""
        assert err.startswith("error: --out: ") and ".tmp" not in err
        assert repr(str(target)) in err
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []


class TestExitCodes:
    def test_infeasible_maps_to_3(self, capsys, monkeypatch):
        def raiser(*args, **kwargs):
            raise InfeasibleError("no feasible utility vector")

        monkeypatch.setattr("fuzzylad.cli.derive_utility", raiser)
        code, out, err = run_cli(capsys, "utility", ADDITIVE)
        assert code == 3
        assert out == ""
        assert err == "infeasible: no feasible utility vector\n"

    def test_arithmetic_errors_map_to_1(self, capsys, monkeypatch):
        def raiser(*args, **kwargs):
            raise ArithmeticError("objective mismatch")

        monkeypatch.setattr("fuzzylad.cli.derive_utility", raiser)
        code, _, err = run_cli(capsys, "utility", ADDITIVE)
        assert code == 1
        assert err.startswith("error:")

    def test_nan_criteria_weight_exits_2_with_its_location(self, capsys, tmp_path):
        doc = json.loads(Path(PORTFOLIO).read_text())
        doc["criteria_weights"][0] = "NaN"
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "ahp", str(path))
        assert code == 2
        assert out == ""
        assert err == f"invalid: {path}: criteria_weights[0]: 'NaN' is not a finite real number\n"

    def test_unordered_ahp_entry_exits_2_located_once(self, capsys, tmp_path):
        doc = json.loads(Path(PORTFOLIO).read_text())
        doc["matrices"][1][0][1] = [4, 3, 2, 5]
        path = tmp_path / "unordered.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "ahp", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            f"invalid: {path}: matrix 2: entry (1,2): components must satisfy a <= b <= c <= d, "
            "got (4.0, 3.0, 2.0, 5.0)\n"
        )

    def test_overflowing_power_exits_1_with_its_location(self, capsys, tmp_path):
        doc = json.loads(Path(PORTFOLIO).read_text())
        doc["criteria_weights"][0] = "9^1000"
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "ahp", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: criteria_weights[0]: cannot parse '9^1000' as a number\n"

    def test_relation_above_the_lp_size_limit_exits_2_naming_the_file(self, capsys, tmp_path):
        n = MAX_LP_ALTERNATIVES + 1
        path = tmp_path / "large.json"
        save_problem(path, rand_consistent_trfpr(np.random.default_rng(43), n))
        code, out, err = run_cli(capsys, "utility", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            f"invalid: {path}: the deviation LP takes at most {n - 1} alternatives, got {n}\n"
        )
        # Commands that solve no LP still take the file.
        assert run_cli(capsys, "consistency", str(path))[0] == 0

    def test_non_finite_sigma_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "weights", ADDITIVE, "--sigma", "0.8,0.9,1.1,inf")
        assert code == 2
        assert err == "invalid: --sigma: 'inf' is not a finite real number\n"

    @pytest.mark.parametrize(
        "command, path, sigma",
        [("ahp", PORTFOLIO, "8e6,9e6,1.1e7,1.2e7"), ("weights", RATIO, "8e8,9e8,1.1e9,1.2e9")],
        ids=["ahp", "weights"],
    )
    def test_sigma_above_the_limit_exits_2_naming_the_flag(self, capsys, command, path, sigma):
        # The solver's absolute tolerances read targets this large as infeasible.
        code, out, err = run_cli(capsys, command, path, "--sigma", sigma)
        assert (code, out) == (2, "")
        assert err.startswith(f"invalid: --sigma: the total-utility target is at most {MAX_SIGMA:g}, ")

    @pytest.mark.parametrize("path", [ADDITIVE, CONSISTENT, RATIO, PORTFOLIO])
    def test_sigma_at_the_limit_solves_every_shipped_file(self, capsys, path):
        sigma = ",".join(str(MAX_SIGMA * r) for r in (0.8 / 1.2, 0.9 / 1.2, 1.1 / 1.2, 1.0))
        command = "ahp" if path == PORTFOLIO else "weights"
        assert run_cli(capsys, command, path, "--sigma", sigma)[0] == 0

    def test_non_positive_sigma_flag_exits_2_naming_the_flag(self, capsys):
        code, _, err = run_cli(capsys, "weights", RATIO, "--sigma", "0,0.9,1.1,1.2")
        assert code == 2
        assert err == (
            "invalid: --sigma: the total-utility target must be strictly positive, "
            "got T(0.0, 0.9, 1.1, 1.2)\n"
        )

    @pytest.mark.parametrize("command", ["weights", "ahp"])
    def test_bad_sigma_field_exits_2_naming_the_file_and_field(self, capsys, tmp_path, command):
        doc = json.loads(Path(RATIO if command == "weights" else PORTFOLIO).read_text())
        doc["sigma"] = [0, 0.9, 1.1, 1.2]
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert err == (
            f"invalid: {path}: sigma: the total-utility target must be strictly positive, "
            "got T(0.0, 0.9, 1.1, 1.2)\n"
        )

    def test_bad_magnitude_weights_exit_2_naming_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "utility", ADDITIVE, "--mag-weights", "0.1,0.1")
        assert code == 2
        assert out == ""
        assert err.startswith("invalid: --mag-weights: magnitude weights must satisfy ")

    def test_bad_scale_exits_2_naming_the_flag(self, capsys, tmp_path):
        out_path = tmp_path / "ratio.json"
        code, out, err = run_cli(
            capsys, "convert", ADDITIVE, "--to", "multiplicative", "--scale", "1", "--out", str(out_path)
        )
        assert code == 2
        assert out == ""
        assert err == "invalid: --scale: scale must be an integer >= 2, got 1\n"
        assert not out_path.exists()



class TestStoredMagnitudeWeights:
    """A file's ``mag_weights`` field acts like ``--mag-weights``, and the flag wins."""

    @pytest.fixture(params=[("utility", ADDITIVE), ("ahp", PORTFOLIO)], ids=["utility", "ahp"])
    def stored(self, request, tmp_path):
        command, original = request.param
        doc = json.loads(Path(original).read_text())
        doc["mag_weights"] = [0.125, 0.375]
        path = tmp_path / Path(original).name
        path.write_text(json.dumps(doc))
        return command, original, str(path)

    @pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
    def test_field_prints_what_the_flag_prints(self, capsys, stored, output):
        command, original, path = stored
        via_field = run_cli(capsys, command, path, *output)
        via_flag = run_cli(capsys, command, original, "--mag-weights", "0.125,0.375", *output)
        assert via_field == via_flag
        assert via_field[0] == 0
        assert via_field != run_cli(capsys, command, original, *output)

    def test_flag_overrides_the_field(self, capsys, stored):
        command, original, path = stored
        flag = ("--mag-weights", "0.2,0.3", "--json")
        assert run_cli(capsys, command, path, *flag) == run_cli(capsys, command, original, *flag)
        assert run_cli(capsys, command, path, *flag) != run_cli(capsys, command, path, "--json")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(n=0), "n must be positive, got 0\n"),
        (lambda doc: doc.update(n=10**6), "matrix 1: expected 1000000 rows\n"),
        (lambda doc: doc.update(matrices=[]), "matrices: expected a non-empty array of matrices\n"),
    ],
    ids=["n-zero", "n-huge", "no-matrices"],
)
def test_loader_refusals_exit_1(capsys, tmp_path, edit, message):
    doc = json.loads(Path(PORTFOLIO).read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "validate", str(path)) == (1, "", f"error: {path}: {message}")

# The flags a subcommand does not read: each is a usage error there.
UNREAD_FLAGS = [
    ("validate", [ADDITIVE], "--tol", "0.1"),
    ("validate", [ADDITIVE], "--mag-weights", "0.25,0.25"),
    ("convert", [ADDITIVE, "--to", "multiplicative", "--out", "unused.json"], "--tol", "0.1"),
    ("convert", [ADDITIVE, "--to", "multiplicative", "--out", "unused.json"],
     "--mag-weights", "0.25,0.25"),
    ("consistency", [ADDITIVE], "--mag-weights", "0.25,0.25"),
    ("utility", [ADDITIVE], "--tol", "0.1"),
    ("weights", [ADDITIVE, "--sigma", "0.8,0.9,1.1,1.2"], "--tol", "0.1"),
    ("ahp", [PORTFOLIO], "--tol", "0.1"),
]


@pytest.mark.parametrize(
    "command, rest, flag, value", UNREAD_FLAGS, ids=[f"{c}{f}" for c, _, f, _ in UNREAD_FLAGS]
)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(
    capsys, tmp_path, monkeypatch, command, rest, flag, value
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([command, *rest, flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, options",
    [
        ("validate", {"--json"}),
        ("consistency", {"--json", "--tol"}),
        ("utility", {"--json", "--mag-weights", "--model", "--sigma"}),
        ("weights", {"--json", "--mag-weights", "--sigma"}),
        ("ahp", {"--json", "--mag-weights", "--sigma", "--compare"}),
        ("convert", {"--json", "--to", "--scale", "--out"}),
    ],
)
def test_each_subcommand_help_lists_only_the_options_it_reads(capsys, command, options):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: fuzzylad {command} ")
    listed = set(re.findall(r"^  (--[a-z-]+)", out, flags=re.MULTILINE))
    assert listed == options
    assert "-h, --help" in out


def test_the_package_imports_only_numpy_at_runtime():
    # scipy and hypothesis are test and benchmark oracles, not dependencies.
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    probe = (
        "import sys, fuzzylad, fuzzylad.cli; "
        "print(sorted({'scipy', 'hypothesis', 'pytest'} & {m.split('.')[0] for m in sys.modules}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\n"
