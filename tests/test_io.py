"""Problem-file parsing, serialization, and error reporting."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fuzzylad import ParseError, TrFPR, TrMPR, ValidationError, to_multiplicative
from fuzzylad.files import (
    LoadedProblem,
    load_problem,
    parse_scalar,
    relation_to_dict,
    save_problem,
)
from conftest import rand_trfpr

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def write_json(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data) + "\n")
    return path


def additive_doc():
    return json.loads((PROBLEMS / "example-additive.json").read_text())


class TestParseScalar:
    def test_plain_numbers(self):
        assert parse_scalar(3, "x") == 3.0
        assert parse_scalar(0.25, "x") == 0.25

    def test_fraction_strings(self):
        assert parse_scalar("1/3", "x") == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert parse_scalar("7/2", "x") == 3.5

    def test_power_strings(self):
        assert parse_scalar("9^0.2", "x") == pytest.approx(9.0 ** 0.2, rel=1e-15)
        assert parse_scalar("9^-0.4", "x") == pytest.approx(9.0 ** -0.4, rel=1e-15)
        assert parse_scalar("2^3", "x") == 8.0

    def test_numeric_strings(self):
        assert parse_scalar("0.5", "x") == 0.5

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ParseError, match="x"):
            parse_scalar(True, "x")

    def test_nan_is_rejected_with_its_location(self):
        with pytest.raises(ValidationError, match=r"^x: 'NaN' is not a finite real number$"):
            parse_scalar("NaN", "x")

    def test_infinity_is_rejected_with_its_location(self):
        with pytest.raises(ValidationError, match=r"^x: '-inf' is not a finite"):
            parse_scalar("-inf", "x")

    def test_decimal_overflow_to_infinity_is_rejected(self):
        with pytest.raises(ValidationError, match=r"^x: '1e400' is not a finite"):
            parse_scalar("1e400", "x")

    def test_non_finite_json_numbers_are_rejected(self):
        with pytest.raises(ValidationError, match=r"^x: nan is not a finite"):
            parse_scalar(float("nan"), "x")

    def test_power_overflow_is_a_parse_error(self):
        with pytest.raises(ParseError, match=r"^x: cannot parse '9\^1000' as a number$"):
            parse_scalar("9^1000", "x")

    def test_complex_power_is_rejected(self):
        with pytest.raises(ValidationError, match=r"^x: '-8\^0.5' is not a finite real number$"):
            parse_scalar("-8^0.5", "x")

    def test_nan_criteria_weight_names_the_field(self, tmp_path):
        doc = json.loads((PROBLEMS / "portfolio.json").read_text())
        doc["criteria_weights"][1] = "NaN"
        with pytest.raises(ValidationError, match=r"^criteria_weights\[1\]: 'NaN'"):
            load_problem(write_json(tmp_path, doc))

    def test_overflowing_matrix_entry_names_the_cell(self, tmp_path):
        doc = additive_doc()
        doc["matrix"][0][1][3] = "9^1000"
        with pytest.raises(ParseError, match=r"^matrix entry \(1,2\): cannot parse"):
            load_problem(write_json(tmp_path, doc))

    def test_garbage_reports_the_location(self):
        with pytest.raises(ParseError, match="matrix entry"):
            parse_scalar("one half", "matrix entry (1,2)")
        with pytest.raises(ParseError):
            parse_scalar("1/0", "x")
        with pytest.raises(ParseError):
            parse_scalar([1], "x")


class TestLoadProblem:
    def test_shipped_additive_file(self):
        problem = load_problem(PROBLEMS / "example-additive.json")
        assert problem.kind == "additive"
        assert problem.n == 3
        assert isinstance(problem.relation, TrFPR)
        assert problem.relation.entry(0, 1).components == (0.6, 0.7, 0.7, 0.8)

    def test_shipped_ratio_file(self):
        problem = load_problem(PROBLEMS / "example-ratio.json")
        assert problem.kind == "multiplicative"
        assert problem.relation.scale == 9
        assert isinstance(problem.relation, TrMPR)
        assert problem.relation.entry(0, 1).a == pytest.approx(9.0 ** 0.2, rel=1e-15)
        assert problem.sigma.components == (0.8, 0.9, 1.1, 1.2)

    def test_shipped_hierarchy_file(self):
        problem = load_problem(PROBLEMS / "portfolio.json")
        assert problem.kind == "ahp"
        assert problem.n == 4
        assert len(problem.matrices) == 3
        assert problem.criteria_weights == (0.5, 0.3, 0.2)
        assert problem.matrices[0].entry(0, 1).components == pytest.approx(
            (1 / 3, 0.5, 0.5, 1.0), rel=1e-15
        )

    def test_kind_and_size_are_read_from_the_relation_or_the_matrices(self):
        names = [f.name for f in dataclasses.fields(LoadedProblem)]
        assert names == ["relation", "matrices", "criteria_weights", "sigma", "mag_weights"]
        problem = load_problem(PROBLEMS / "example-additive.json")
        x = rand_trfpr(np.random.default_rng(5), 5)
        swapped = dataclasses.replace(problem, relation=to_multiplicative(x, 9))
        assert (swapped.kind, swapped.n) == ("multiplicative", 5)
        hierarchy = load_problem(PROBLEMS / "portfolio.json")
        assert (hierarchy.kind, hierarchy.n) == ("ahp", 4)
        assert dataclasses.replace(hierarchy, matrices=(swapped.relation,)).n == 5

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_problem(tmp_path / "nope.json")

    def test_syntax_errors_carry_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "kind": "additive",\n  oops\n}\n')
        with pytest.raises(ParseError, match="line 3"):
            load_problem(path)

    def test_missing_required_fields(self, tmp_path):
        doc = additive_doc()
        del doc["matrix"]
        with pytest.raises(ParseError, match="matrix"):
            load_problem(write_json(tmp_path, doc))

    def test_unknown_kind(self, tmp_path):
        doc = additive_doc()
        doc["kind"] = "ordinal"
        with pytest.raises(ParseError, match="kind"):
            load_problem(write_json(tmp_path, doc))

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ParseError, match="object"):
            load_problem(path)

    def test_matrix_shape_errors_name_the_row(self, tmp_path):
        doc = additive_doc()
        doc["matrix"][1] = doc["matrix"][1][:2]
        with pytest.raises(ParseError, match="row 2"):
            load_problem(write_json(tmp_path, doc))

    def test_entry_errors_name_the_cell(self, tmp_path):
        doc = additive_doc()
        doc["matrix"][0][2] = [0.6, 0.7, 0.8]
        with pytest.raises(ParseError, match=r"\(1,3\)"):
            load_problem(write_json(tmp_path, doc))

    def test_reciprocity_break_is_a_validation_error(self, tmp_path):
        doc = additive_doc()
        doc["matrix"][1][0] = [0.2, 0.3, 0.3, 0.5]
        with pytest.raises(ValidationError, match=r"\(2,1\)"):
            load_problem(write_json(tmp_path, doc))

    def test_wrong_diagonal_is_a_validation_error(self, tmp_path):
        doc = additive_doc()
        doc["matrix"][2][2] = [0.3, 0.5, 0.5, 0.7]
        with pytest.raises(ValidationError, match=r"\(3,3\)"):
            load_problem(write_json(tmp_path, doc))

    def test_scale_required_for_ratio_files(self, tmp_path):
        doc = json.loads((PROBLEMS / "example-ratio.json").read_text())
        del doc["scale"]
        with pytest.raises(ParseError, match="scale"):
            load_problem(write_json(tmp_path, doc))

    def test_hierarchy_weight_count_must_match(self, tmp_path):
        doc = json.loads((PROBLEMS / "portfolio.json").read_text())
        doc["criteria_weights"] = [0.5, 0.5]
        with pytest.raises(ParseError, match="criteria_weights"):
            load_problem(write_json(tmp_path, doc))

    def test_hierarchy_weights_must_sum_to_one(self, tmp_path):
        doc = json.loads((PROBLEMS / "portfolio.json").read_text())
        doc["criteria_weights"] = [0.5, 0.4, 0.2]
        with pytest.raises(ValidationError, match="sum to 1"):
            load_problem(write_json(tmp_path, doc))

    def test_hierarchy_matrix_errors_are_prefixed(self, tmp_path):
        doc = json.loads((PROBLEMS / "portfolio.json").read_text())
        doc["matrices"][1][0][1] = [9, 9, 9, 9]
        with pytest.raises(ValidationError, match="matrix 2"):
            load_problem(write_json(tmp_path, doc))

    def test_mag_weights_field(self, tmp_path):
        doc = additive_doc()
        doc["mag_weights"] = [0.125, 0.375]
        problem = load_problem(write_json(tmp_path, doc))
        assert problem.mag_weights.w1 == 0.125
        doc["mag_weights"] = [0.5, 0.5]
        with pytest.raises(ValidationError, match="mag_weights"):
            load_problem(write_json(tmp_path, doc))
        doc["mag_weights"] = [0.125]
        with pytest.raises(ParseError, match="mag_weights"):
            load_problem(write_json(tmp_path, doc))

    def test_sigma_field_is_optional_but_validated(self, tmp_path):
        doc = additive_doc()
        doc["sigma"] = [0.8, 0.9, 1.1]
        with pytest.raises(ParseError, match="sigma"):
            load_problem(write_json(tmp_path, doc))


UNORDERED = r"components must satisfy a <= b <= c <= d, got \(4\.0, 3\.0, 2\.0, 5\.0\)$"


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("example-additive.json", ("neutral",), [0.3, 0.5, 0.5, 0.6],
         r"^neutral: neutral element T\(0\.3, 0\.5, 0\.5, 0\.6\) is not a fixed point of negation"),
        ("example-additive.json", ("neutral",), [0.6, 0.5, 0.5, 0.4],
         r"^neutral: components must satisfy a <= b <= c <= d"),
        ("example-ratio.json", ("neutral",), [0.5, 1, 1, 3],
         r"^neutral: neutral element T\(0\.5, 1\.0, 1\.0, 3\.0\) is not a fixed point of inversion"),
        ("example-additive.json", ("mag_weights",), [0.5, 0.5],
         r"^mag_weights: magnitude weights must satisfy 2\*\(w1\+w2\) = 1"),
        ("example-ratio.json", ("sigma",), [1.2, 1.1, 0.9, 0.8],
         r"^sigma: components must satisfy a <= b <= c <= d"),
        ("example-ratio.json", ("sigma",), [0, 0.9, 1.1, 1.2],
         r"^sigma: the total-utility target must be strictly positive, got T\(0\.0, 0\.9, 1\.1, 1\.2\)$"),
        ("example-additive.json", ("matrix", 0, 1), [4, 3, 2, 5], r"^entry \(1,2\): " + UNORDERED),
        ("example-ratio.json", ("matrix", 0, 1), [4, 3, 2, 5], r"^entry \(1,2\): " + UNORDERED),
        ("portfolio.json", ("matrices", 1, 0, 1), [4, 3, 2, 5],
         r"^matrix 2: entry \(1,2\): " + UNORDERED),
    ],
    ids=["additive neutral", "unordered neutral", "multiplicative neutral", "mag_weights",
         "sigma", "non-positive sigma", "additive entry", "multiplicative entry", "ahp entry"],
)
def test_validation_errors_carry_their_full_location(tmp_path, name, path, value, message):
    doc = json.loads((PROBLEMS / name).read_text())
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(ValidationError, match=message):
        load_problem(write_json(tmp_path, doc))


def test_unparsable_entry_is_reported_before_an_earlier_unordered_one(tmp_path):
    doc = additive_doc()
    doc["matrix"][0][1] = [4, 3, 2, 5]
    doc["matrix"][2][0][0] = "one half"
    with pytest.raises(ParseError, match=r"^matrix entry \(3,1\): cannot parse 'one half'"):
        load_problem(write_json(tmp_path, doc))


class TestSaveProblem:
    def test_additive_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(61)
        for idx in range(20):
            x = rand_trfpr(rng, int(rng.integers(2, 5)))
            path = tmp_path / f"rt{idx}.json"
            save_problem(path, x)
            back = load_problem(path)
            assert back.kind == "additive"
            for i in range(x.n):
                for j in range(x.n):
                    assert back.relation.entry(i, j) == x.entry(i, j)

    def test_ratio_round_trip_is_exact(self, tmp_path, base_relation):
        y = to_multiplicative(base_relation, 9)
        path = tmp_path / "ratio.json"
        save_problem(path, y)
        back = load_problem(path)
        assert back.kind == "multiplicative"
        assert back.relation.scale == 9
        for i in range(y.n):
            for j in range(y.n):
                assert back.relation.entry(i, j) == y.entry(i, j)

    def test_serialized_shape(self, base_relation):
        doc = relation_to_dict(base_relation)
        assert doc["kind"] == "additive"
        assert doc["n"] == 3
        assert doc["neutral"] == [0.4, 0.5, 0.5, 0.6]
        assert len(doc["matrix"]) == 3

    def test_only_relations_serialize(self):
        with pytest.raises(ValidationError):
            relation_to_dict("not a relation")

    def test_failed_replace_keeps_the_target_and_leaves_no_temporary(
        self, tmp_path, base_relation, monkeypatch
    ):
        path = tmp_path / "out.json"
        path.write_text("previous contents\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("fuzzylad.files.os.replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_problem(path, base_relation)
        assert path.read_text() == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_written_file_is_plain_json_with_trailing_newline(self, tmp_path, base_relation):
        path = tmp_path / "out.json"
        save_problem(path, base_relation)
        text = path.read_text()
        assert text.endswith("\n")
        json.loads(text)


# Raw-byte fuzz of load_problem: truncation, spliced bytes (invalid UTF-8
# among them), nesting past the recursion limit, and a digit run grown past
# the int-string limit, applied to the shipped problem files.
NAMES = sorted(path.name for path in PROBLEMS.glob("*.json"))
RAW = [(PROBLEMS / name).read_bytes() for name in NAMES]
SPLICES = [b"\xff", b"\xc3", b"\x00", b'"', b"[", b"]", b"{", b"}", b",", b"-", b"1e999", b"NaN"]
DIGITS = re.compile(rb"\d+")


def _edit_bytes(data: bytearray, op: str, where: int, payload: bytes) -> None:
    at = where % (len(data) + 1)
    if op == "truncate":
        del data[at:]
    elif op == "splice":
        data[at:at] = payload
    elif op == "nest":
        data[at:at] = b"[" * 100_000
    elif (run := DIGITS.search(data, at)) is not None:
        data[run.start():run.end()] = b"1" * 5000


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    return tmp_path_factory.mktemp("load-fuzz")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    base=st.sampled_from(range(len(RAW))),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["truncate", "splice", "nest", "digits"]),
            st.integers(0, 10**5),
            st.binary(max_size=6) | st.sampled_from(SPLICES),
        ),
        max_size=3,
    ),
)
@example(base=NAMES.index("example-additive.json"), edits=[("splice", 10, b"\xff")])
@example(base=NAMES.index("example-additive.json"), edits=[("digits", 0, b"")])
@example(base=NAMES.index("portfolio.json"), edits=[("nest", 0, b"")])
def test_load_problem_on_mutated_bytes_loads_or_refuses(fuzzdir, base, edits):
    data = bytearray(RAW[base])
    for edit in edits:
        _edit_bytes(data, *edit)
    path = fuzzdir / "mutated.json"
    path.write_bytes(bytes(data))
    try:
        loaded = load_problem(path)
    except (ParseError, ValidationError):
        return
    assert isinstance(loaded, LoadedProblem)
