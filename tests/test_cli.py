import dataclasses
import json

import jsonschema
import pytest

import tvdist as tv
from tvdist import cli
from tvdist.errors import DegenerateConditional

from conftest import BERNOULLI_P, BERNOULLI_Q, run_cli


def check_schema(schema, report):
    jsonschema.Draft202012Validator(schema).validate(report)


def test_estimate_reports_and_validates(capsys, schema, bernoulli_file):
    code, report, err = run_cli(
        capsys,
        ["estimate", bernoulli_file, "--epsilon", "0.1", "--delta", "0.05", "--seed", "7"],
    )
    assert code == 0
    check_schema(schema, report)
    assert report["command"] == "estimate"
    assert report["config"]["samples"] == 1200
    assert 0.297 <= report["result"]["estimate"] <= 0.363
    assert "d_hat" in err


def test_estimate_is_replayable(capsys, bernoulli_file):
    argv = ["estimate", bernoulli_file, "--seed", "21"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    drop = {"elapsed_seconds"}
    assert {k: v for k, v in first["result"].items() if k not in drop} == {
        k: v for k, v in second["result"].items() if k not in drop
    }


def test_estimate_generates_and_prints_seed(capsys, schema, bernoulli_file):
    code, report, err = run_cli(capsys, ["estimate", bernoulli_file])
    assert code == 0
    check_schema(schema, report)
    assert isinstance(report["config"]["seed"], int)
    assert "generated seed" in err


def test_naive_generates_and_prints_seed(capsys, schema, bernoulli_file):
    code, report, err = run_cli(capsys, ["naive", bernoulli_file, "--samples", "100"])
    assert code == 0
    check_schema(schema, report)
    assert isinstance(report["config"]["seed"], int)
    assert "generated seed" in err


def test_estimate_workers_flag_does_not_change_result(capsys, bernoulli_file):
    base = ["estimate", bernoulli_file, "--seed", "33", "--samples", "9000"]
    _, serial, _ = run_cli(capsys, base + ["--workers", "1"])
    _, parallel, _ = run_cli(capsys, base + ["--workers", "4"])
    assert serial["result"]["estimate"] == parallel["result"]["estimate"]
    assert serial["result"]["mean_f"] == parallel["result"]["mean_f"]


def test_estimate_identical_short_circuits(capsys, schema, tmp_path):
    path = tmp_path / "same.json"
    path.write_text(json.dumps({"p": BERNOULLI_P, "q": BERNOULLI_P}))
    code, report, _ = run_cli(capsys, ["estimate", str(path), "--seed", "1"])
    assert code == 0
    check_schema(schema, report)
    assert report["result"]["estimate"] == 0.0
    assert report["result"]["samples_used"] == 0


def test_exact_command(capsys, schema, bernoulli_file):
    code, report, _ = run_cli(capsys, ["exact", bernoulli_file])
    assert code == 0
    check_schema(schema, report)
    assert report["result"]["tv"] == pytest.approx(0.33, rel=1e-12)
    assert report["result"]["states"] == 4


def test_exact_budget_exceeded(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(
        json.dumps({"p": [[0.5, 0.5]] * 25, "q": [[0.4, 0.6]] * 25})
    )
    code, report, _ = run_cli(capsys, ["exact", str(path), "--max-states", str(2**20)])
    assert code == 4
    assert report["error"]["type"] == "BudgetExceeded"


def test_naive_command(capsys, schema, bernoulli_file):
    code, report, _ = run_cli(
        capsys, ["naive", bernoulli_file, "--samples", "100000", "--seed", "7"]
    )
    assert code == 0
    check_schema(schema, report)
    assert report["result"]["estimate"] == pytest.approx(0.33, abs=0.005)


def test_info_command(capsys, schema, bernoulli_file):
    code, report, _ = run_cli(
        capsys, ["info", bernoulli_file, "--epsilon", "0.1", "--delta", "0.05"]
    )
    assert code == 0
    check_schema(schema, report)
    result = report["result"]
    assert result["per_coordinate_tv"] == pytest.approx([0.3, 0.3])
    assert result["pr_diff"] == pytest.approx(0.51, rel=1e-12)
    assert result["sample_count"] == 1200
    assert result["identical"] is False


def test_info_identical_instance(capsys, schema, tmp_path):
    path = tmp_path / "same.json"
    path.write_text(json.dumps({"p": BERNOULLI_P, "q": BERNOULLI_P}))
    code, report, err = run_cli(capsys, ["info", str(path)])
    assert code == 0
    check_schema(schema, report)
    assert report["result"]["pr_diff"] == 0.0
    assert report["result"]["identical"] is True
    assert "identical" in err


def test_missing_file_is_io_error(capsys, tmp_path):
    code, report, _ = run_cli(capsys, ["estimate", str(tmp_path / "nope.json")])
    assert code == 3
    assert "error" in report


def test_malformed_json_is_validation_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, report, _ = run_cli(capsys, ["exact", str(path)])
    assert code == 2
    assert report["error"]["type"] == "InstanceFormatError"


def test_invalid_probabilities_name_the_coordinate(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": [[0.7, 0.2]], "q": [[0.5, 0.5]]}))
    code, report, _ = run_cli(capsys, ["estimate", str(path), "--seed", "1"])
    assert code == 2
    assert report["error"]["type"] == "MarginalNotNormalized"
    assert report["error"]["coordinate"] == 1


def test_overflowing_row_sum_is_validation_error(capsys, tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"p": [[1e308, 1e308]], "q": [[0.5, 0.5]]}))
    code, report, _ = run_cli(capsys, ["info", str(path)])
    assert code == 2
    assert report["error"]["type"] == "MarginalNotNormalized"
    assert report["error"]["coordinate"] == 1
    assert "sum to inf" in report["error"]["message"]


def test_shape_mismatch_is_validation_error(capsys, tmp_path):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"p": [[0.5, 0.5]], "q": [[0.2, 0.3, 0.5]]}))
    code, report, _ = run_cli(capsys, ["info", str(path)])
    assert code == 2
    assert report["error"]["type"] == "DomainMismatch"


def test_missing_key_is_validation_error(capsys, tmp_path):
    path = tmp_path / "nokey.json"
    path.write_text(json.dumps({"p": [[0.5, 0.5]]}))
    code, report, _ = run_cli(capsys, ["exact", str(path)])
    assert code == 2
    assert report["error"]["type"] == "InstanceFormatError"


def test_non_numeric_probability_is_validation_error(capsys, tmp_path):
    path = tmp_path / "text.json"
    path.write_text(json.dumps({"p": [["a", "b"]], "q": [[0.5, 0.5]]}))
    code, report, _ = run_cli(capsys, ["exact", str(path)])
    assert code == 2
    assert report["error"]["type"] == "InstanceFormatError"


@pytest.mark.parametrize(
    "entry",
    [
        True,
        "0.5",
        pytest.param(None, id="null"),
        pytest.param([0.5], id="nested_list"),
        pytest.param(10**401, id="int_past_double_range"),
    ],
)
def test_bool_or_string_probability_is_validation_error(capsys, tmp_path, entry):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"p": [[0.5, 0.5], [entry, 0.5]], "q": BERNOULLI_Q}))
    code, report, err = run_cli(capsys, ["estimate", str(path), "--seed", "1"])
    assert code == 2
    assert report["error"]["type"] == "InstanceFormatError"
    assert report["error"]["coordinate"] == 2
    assert "coordinate 2, category 1" in report["error"]["message"]
    assert "category 1" in err


@pytest.mark.parametrize(
    "text, coordinate",
    [
        pytest.param('{"p": [[0.5, 0.5], 0.5], "q": [[0.5, 0.5], [0.5, 0.5]]}', 2, id="row"),
        pytest.param('{"p": [[' + "1" * 5000 + ']], "q": [[1.0]]}', None, id="digits"),
    ],
)
def test_unreadable_rows_are_validation_errors(capsys, tmp_path, text, coordinate):
    path = tmp_path / "rows.json"
    path.write_text(text)
    code, report, _ = run_cli(capsys, ["info", str(path)])
    assert code == 2
    assert report["error"]["type"] == "InstanceFormatError"
    assert report["error"].get("coordinate") == coordinate


def test_internal_invariant_maps_to_exit_5(capsys, bernoulli_file, monkeypatch):
    def boom(*args, **kwargs):
        raise DegenerateConditional("forced for the exit-code contract")

    monkeypatch.setattr(tv.coupling, "estimate_tv", boom)
    code, report, _ = run_cli(capsys, ["estimate", bernoulli_file, "--seed", "1"])
    assert code == 5
    assert report["error"]["type"] == "DegenerateConditional"


def test_report_round_trips_losslessly(capsys, bernoulli_file):
    _, report, _ = run_cli(capsys, ["estimate", bernoulli_file, "--seed", "4"])
    assert json.loads(json.dumps(report)) == report


def test_instance_file_round_trips(tmp_path):
    document = {"p": [[0.25, 0.75], [1e-3, 0.999]], "q": [[0.5, 0.5], [0.2, 0.8]]}
    path = tmp_path / "roundtrip.json"
    path.write_text(json.dumps(document))
    p1, q1, digest1 = cli.load_instance(str(path))
    path.write_text(json.dumps(document))
    p2, q2, digest2 = cli.load_instance(str(path))
    assert p1 == p2
    assert q1 == q2
    assert digest1 == digest2
    assert p1 == tv.validate(document["p"])


#: A command's flags, and the message its rejection prints after "error: ".
BAD_FLAGS = [
    (["estimate", "--epsilon", "-1"], "argument --epsilon: epsilon must be positive, got -1.0"),
    (["estimate", "--delta", "1.5"], "argument --delta: delta must be in (0, 1), got 1.5"),
    (["naive"], "the following arguments are required: --samples"),
    (["estimate", "--samples", "0"], "argument --samples: samples must be >= 1, got 0"),
    (["estimate", "--workers", "0"], "argument --workers: workers must be >= 1, got 0"),
    (["exact", "--max-states", "0"], "argument --max-states: max_states must be >= 1, got 0"),
    (["estimate", "--seed", "-1"], "argument --seed: seed must be in [0, 2**64), got -1"),
    (
        ["naive", "--samples", "9", "--seed", str(2**64)],
        f"argument --seed: seed must be in [0, 2**64), got {2**64}",
    ),
    (["info", "--epsilon", "inf"], "argument --epsilon: epsilon must be finite, got inf"),
    (["info", "--delta", "0"], "argument --delta: delta must be in (0, 1), got 0.0"),
    (["estimate", "--epsilon", "abc"], "argument --epsilon: invalid float value: 'abc'"),
    (["naive", "--samples", "1.5"], "argument --samples: invalid int value: '1.5'"),
]


def test_parser_rejects_bad_flag_values(capsys):
    """Each flag runs the library's own check: a usage error (exit 2) that
    prints the check's message."""
    parser = cli.build_parser()
    for (command, *flags), message in BAD_FLAGS:
        with pytest.raises(SystemExit) as info:
            parser.parse_args([command, "x.json", *flags])
        assert info.value.code == 2, flags
        assert f"tvdist {command}: error: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["1e-320", "1e-160"])
def test_a_draw_count_past_double_range_is_a_validation_error(
    capsys, bernoulli_file, epsilon
):
    """epsilon**2 underflows to 0 at 1e-320, and the count overflows at 1e-160."""
    code, report, err = run_cli(capsys, ["info", bernoulli_file, "--epsilon", epsilon])
    assert code == 2
    assert report["error"]["type"] == "InvalidParameter"
    assert f"epsilon={float(epsilon)!r}, delta=0.05" in report["error"]["message"]
    assert "past double range" in err


def test_a_finite_draw_count_past_memory_is_reported(capsys, bernoulli_file):
    code, report, _ = run_cli(capsys, ["info", bernoulli_file, "--epsilon", "1e-150"])
    assert code == 0
    assert report["result"]["sample_count"] == tv.sample_count(2, 1e-150, 0.05) > 10**300


@pytest.mark.parametrize(
    "document, message",
    [
        pytest.param([1, 2], "top level must be an object", id="list"),
        pytest.param({"p": 5, "q": [[1.0]]}, "must be a list of rows, got int", id="p"),
        pytest.param({"p": [[1.0]], "q": "[1.0]"}, "must be a list of rows, got str", id="q"),
    ],
)
def test_instance_of_the_wrong_structure_is_validation_error(
    capsys, tmp_path, document, message
):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(document))
    code, report, _ = run_cli(capsys, ["info", str(path)])
    assert code == 2
    assert report["error"]["type"] == "InstanceFormatError"
    assert message in report["error"]["message"]


def test_result_fields_are_reported_in_order(capsys, bernoulli_file):
    """The estimate and naive reports hold every EstimateResult field, in order."""
    names = [field.name for field in dataclasses.fields(tv.EstimateResult)]
    for argv in (["estimate", "--seed", "3"], ["naive", "--samples", "50", "--seed", "3"]):
        _, report, _ = run_cli(capsys, [argv[0], bernoulli_file, *argv[1:]])
        assert list(report["result"]) == names
