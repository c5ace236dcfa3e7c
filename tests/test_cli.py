import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detcalc import InvariantReport, bundles, chow, invariants
from detcalc.cli import (
    ConfigError,
    _check_printable,
    load_config,
    main,
    parse_config,
    report_from_config,
    report_to_dict,
)
from detcalc.invariants import GuardError
from tables import instance


QUINTIC_DOC = {
    "ambient": {"kind": "projective_space", "dims": [4]},
    "E": [[-1], [-1], [-1], [-2]],
    "F": [[0], [0], [0], [0]],
    "polarization": [1],
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- config schema -------------------------------------------------------------


@pytest.mark.parametrize(
    "doc",
    [
        QUINTIC_DOC,
        {
            "ambient": {"kind": "product", "dims": [2, 2]},
            "E": [[0, 0], [0, 0]],
            "F": [[1, 1], [2, 2]],
            "polarization": [1, 1],
            "flags": {"assume_general": False, "allow_non_cy_c2": True},
        },
        {
            "ambient": {"kind": "projective_space", "dims": [5]},
            "E": [[0], [0]],
            "F": [[3], [3]],
        },
    ],
)
def test_parse_config_round_trip(doc):
    config = parse_config(doc)
    assert parse_config(json.loads(json.dumps(config))) == config


def test_parse_config_defaults():
    config = parse_config({k: v for k, v in QUINTIC_DOC.items() if k != "polarization"})
    assert "polarization" not in config
    assert config["flags"]["assume_general"] is True
    assert config["flags"]["allow_non_cy_c2"] is False


def _field_path(value):
    """Name a case by the field path its message starts with."""
    return value.partition(":")[0] if isinstance(value, str) else None


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: {**d, "bogus": 1}, "bogus: unknown field"),
        (
            lambda d: {k: v for k, v in d.items() if k != "E"},
            "E: missing required field",
        ),
        (
            lambda d: {**d, "ambient": {**d["ambient"], "kind": "grassmannian"}},
            "ambient.kind: expected one of ('projective_space', 'product')",
        ),
        (
            lambda d: {**d, "ambient": {**d["ambient"], "dims": [4, 3]}},
            "ambient.dims: projective_space takes one dimension",
        ),
        (
            lambda d: {**d, "ambient": {**d["ambient"], "dims": [3]}},
            "ambient.dims: total dimension must be at least 4",
        ),
        (
            lambda d: {**d, "E": [[1, 2]] * 4},
            "E[0]: expected 1 entries, one per projective factor",
        ),
        (lambda d: {**d, "F": [[0]] * 3}, "F: expected 4 rows to match E"),
        (lambda d: {**d, "E": [["x"]] * 4}, "E[0][0]: expected an integer"),
        (
            lambda d: {**d, "polarization": [1, 1]},
            "polarization: expected 1 entries, one per projective factor",
        ),
        (
            lambda d: {**d, "flags": {"assume_general": "yes"}},
            "flags.assume_general: expected a boolean",
        ),
        (
            lambda d: {**d, "flags": {"unknown": True}},
            "flags.unknown: unknown field",
        ),
        (
            lambda d: {**d, "E": [[0]], "F": [[0]]},
            "E: the morphism matrix must be at least 2 x 2",
        ),
        (lambda d: [d], "<root>: expected an object"),
        (lambda d: {**d, "ambient": "P^4"}, "ambient: expected an object"),
        (lambda d: {**d, "flags": []}, "flags: expected an object"),
        pytest.param(
            lambda d: {**d, "ambient": {"dims": [4]}},
            "ambient.kind: missing required field",
            id="missing-ambient.kind",
        ),
        (
            lambda d: {**d, "ambient": {**d["ambient"], "dims": [0]}},
            "ambient.dims: factor dimensions must be >= 1",
        ),
        (
            lambda d: {**d, "polarization": [0]},
            "polarization[0]: must be >= 1 so that the class is ample",
        ),
        pytest.param(
            lambda d: {**d, "flags": {"assume_general": 1, "allow_non_cy_c2": 0}},
            "flags.assume_general: expected a boolean",
            id="both-flags-invalid",
        ),
    ],
    ids=_field_path,
)
def test_parse_config_rejects_bad_documents(edit, message):
    with pytest.raises(ConfigError) as err:
        parse_config(edit(QUINTIC_DOC))
    assert str(err.value) == message


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
_ROWS = st.lists(
    st.lists(st.integers(-2, 3), min_size=1, max_size=3), min_size=1, max_size=4
)
# Documents near the schema, so that most draws get past the first checks.
_CONFIG_DOCS = _JSON_VALUES | st.fixed_dictionaries(
    {},
    optional={
        "ambient": _JSON_VALUES
        | st.fixed_dictionaries(
            {},
            optional={
                "kind": st.sampled_from(["projective_space", "product", "cone"])
                | _JSON_VALUES,
                "dims": st.lists(st.integers(0, 5), max_size=3) | _JSON_VALUES,
                "extra": _JSON_VALUES,
            },
        ),
        "E": _ROWS | _JSON_VALUES,
        "F": _ROWS | _JSON_VALUES,
        "polarization": st.lists(st.integers(-1, 2), max_size=3) | _JSON_VALUES,
        "flags": _JSON_VALUES
        | st.fixed_dictionaries(
            {},
            optional={
                "assume_general": st.booleans() | _JSON_VALUES,
                "allow_non_cy_c2": st.booleans() | _JSON_VALUES,
                "extra": _JSON_VALUES,
            },
        ),
        "extra": _JSON_VALUES,
    },
)


def _small(doc) -> bool:
    """False for a document whose ambient has total dimension above 8."""
    try:
        return sum(doc["ambient"]["dims"]) <= 8
    except (KeyError, TypeError):
        return True


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)):
        yield value


@st.composite
def _reportable_docs(draw):
    """Schema-valid documents of total dimension 4..8 and rank 2..4, with
    polarization entries that may be 0, so that most draws reach a report."""
    dims = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=5).filter(
            lambda dims: 4 <= sum(dims) <= 8
        )
    )
    rank = draw(st.integers(2, 4))
    rows = st.lists(
        st.lists(st.integers(-2, 3), min_size=len(dims), max_size=len(dims)),
        min_size=rank,
        max_size=rank,
    )
    doc = {
        "ambient": {
            "kind": "projective_space" if len(dims) == 1 else "product",
            "dims": dims,
        },
        "E": draw(rows),
        "F": draw(rows),
        "flags": {"allow_non_cy_c2": draw(st.booleans())},
    }
    if draw(st.booleans()):
        doc["polarization"] = draw(
            st.lists(st.integers(0, 3), min_size=len(dims), max_size=len(dims))
        )
    return doc


@settings(max_examples=300, deadline=None)
@given(_reportable_docs() | _CONFIG_DOCS)
def test_parse_config_accepts_or_raises_config_error(doc):
    try:
        config = parse_config(doc)
    except ConfigError:
        return
    assert isinstance(config, dict)
    assert parse_config(config) == config
    assert json.loads(json.dumps(config)) == config


@settings(max_examples=300, deadline=None)
@given(_reportable_docs() | _CONFIG_DOCS)
def test_main_report_exits_cleanly(tmp_path_factory, doc):
    # rows are at most 4 long, so with the dimension bound a report stays cheap
    assume(_small(doc))
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", str(path), "--json"])
    assert code in (0, 2, 3)
    if code == 0:
        assert all(type(x) in (int, bool) for x in _numbers(json.loads(out.getvalue())))


def test_single_factor_product_reports_like_projective_space(tmp_path, capsys):
    product = {**QUINTIC_DOC, "ambient": {"kind": "product", "dims": [4]}}
    outputs = []
    for name, doc in (("p4.json", QUINTIC_DOC), ("product.json", product)):
        assert main(["report", write_config(tmp_path, doc, name)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_instance_from_config_builds_the_right_ring():
    inst = instance(parse_config(QUINTIC_DOC))
    assert inst.d == 4
    assert inst.pair.rank == 4
    assert inst.polarization == inst.ambient.generator(0)


def test_load_config_reports_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_load_config_reports_non_utf8_file(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="^<file>: not UTF-8 text"):
        load_config(str(path))


def test_load_config_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 5000 + "]" * 5000, "^<file>: JSON nested too deeply$"),
        ('{"ambient": ' + "9" * 5000 + "}", "^<file>: unsupported JSON value"),
    ],
    ids=["deeply-nested", "overlong-integer"],
)
def test_load_config_refuses_unreadable_json(tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))


# -- report command --------------------------------------------------------------


def test_report_text_output(tmp_path, capsys):
    code = main(["report", write_config(tmp_path, QUINTIC_DOC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "ODP count:          46" in out
    assert "L^3 = 2" in out
    assert "c2.H = 50" in out


def test_report_json_output(tmp_path, capsys):
    code = main(["report", write_config(tmp_path, QUINTIC_DOC), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["odp_count"] == 46
    assert doc["ih_milnor_number"] == 92
    assert doc["euler_smooth"] == -200
    assert doc["euler_resolution"] == -108
    assert doc["intersection_numbers"] == {
        "L^3": 2,
        "L^2.H": 7,
        "L.H^2": 9,
        "H^3": 5,
    }
    assert doc["c2.H"] == 50 and doc["c2.L"] == 44


def test_report_json_for_quartic(tmp_path, capsys):
    doc = {
        "ambient": {"kind": "projective_space", "dims": [4]},
        "E": [[0], [0]],
        "F": [[2], [2]],
    }
    code = main(["report", write_config(tmp_path, doc), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["odp_count"] == 16
    assert out["ih_milnor_number"] == 32
    assert out["euler_smooth"] == -56
    assert out["euler_resolution"] == -24


def test_a_new_report_field_reaches_the_json_document():
    """A field added to the report is in the document under its own name
    when set, and absent when unset, with no change to the CLI."""
    config = parse_config(QUINTIC_DOC)
    report = report_from_config(config)
    extended = dataclasses.make_dataclass(
        "ExtendedReport",
        [("euler_singular", "int | None", None)],
        bases=(InvariantReport,),
    )
    fields = dataclasses.asdict(report)
    doc = report_to_dict(config, extended(**fields, euler_singular=46))
    assert doc == {**report_to_dict(config, report), "euler_singular": 46}
    unset = report_to_dict(config, extended(**fields))
    assert unset == report_to_dict(config, report)


def test_report_is_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, QUINTIC_DOC)
    main(["report", path, "--json"])
    first = capsys.readouterr().out
    main(["report", path, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_report_on_a_large_projective_space(tmp_path, capsys):
    # no part of a report grows with the number of partitions of the dimension
    doc = {**QUINTIC_DOC, "ambient": {"kind": "projective_space", "dims": [30]}}
    code = main(["report", write_config(tmp_path, doc), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(type(x) in (int, bool) for x in _numbers(doc))
    assert doc["intersection_numbers"]["H^29"] == 5


def test_report_exit_two_on_schema_violation(tmp_path, capsys):
    doc = json.loads(json.dumps(QUINTIC_DOC))
    doc["bogus"] = True
    code = main(["report", write_config(tmp_path, doc)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_report_exit_three_on_guard_violation(tmp_path, capsys):
    doc = {
        "ambient": {"kind": "projective_space", "dims": [4]},
        "E": [[0], [0]],
        "F": [[2], [2]],
        "polarization": [1],
    }
    code = main(["report", write_config(tmp_path, doc)])
    assert code == 3
    assert "guard violation" in capsys.readouterr().err


def test_report_and_table_exit_one_on_route_mismatch(tmp_path, capsys, monkeypatch):
    original = invariants.hook_pairing
    monkeypatch.setattr(invariants, "hook_pairing", lambda *a: 2 * original(*a))
    for argv in (["report", write_config(tmp_path, QUINTIC_DOC)], ["table", "table1"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "consistency error: resolution Euler number: hooks "
        )


def test_report_refuses_c2_before_building_the_resolution(tmp_path, capsys, monkeypatch):
    # the c2 guard reads only the inputs, so a refused report builds no P(F)
    doc = {
        "ambient": {"kind": "projective_space", "dims": [4]},
        "E": [[0], [0], [0]],
        "F": [[2], [2], [2]],
        "polarization": [1],
    }
    calls = []
    original = invariants.proj_bundle
    monkeypatch.setattr(
        invariants, "proj_bundle", lambda *a: calls.append(1) or original(*a)
    )
    code = main(["report", write_config(tmp_path, doc)])
    assert code == 3
    assert "Calabi-Yau condition fails" in capsys.readouterr().err
    assert calls == []
    # the opt-in report builds it once
    doc["flags"] = {"allow_non_cy_c2": True}
    assert main(["report", write_config(tmp_path, doc)]) == 0
    assert calls == [1]


def test_refused_c2_report_divides_no_chern_class(monkeypatch):
    # the guard reads D and the Calabi-Yau test, which the pair holds; the
    # two sequences wait for a first read, which a refused config never makes
    calls = []
    for module in (chow, bundles, invariants):
        monkeypatch.setattr(
            module, "divide_by_roots", lambda *a: calls.append(1) or [],
        )
    config = parse_config({
        "ambient": {"kind": "projective_space", "dims": [4]},
        "E": [[0], [0]],
        "F": [[1], [1]],
        "polarization": [1],
    })
    with pytest.raises(GuardError, match="Calabi-Yau condition fails"):
        report_from_config(config)
    assert calls == []


def test_report_evaluates_the_calabi_yau_test_once(tmp_path, capsys, monkeypatch):
    # the test builds c1(T) = sum (d_i + 1) h_i from the caps; the pair holds
    # it, and the c2 guard and the instance read it from there
    tangent_c1 = []
    original = chow.AmbientSpace.degree_one

    def counting(space, coeffs):
        coeffs = list(coeffs)
        if coeffs == [c + 1 for c in space.caps]:
            tangent_c1.append(coeffs)
        return original(space, coeffs)

    monkeypatch.setattr(chow.AmbientSpace, "degree_one", counting)
    assert main(["report", write_config(tmp_path, QUINTIC_DOC)]) == 0
    assert "calabi-yau:         yes" in capsys.readouterr().out
    assert tangent_c1 == [[5]]


def _long_degree_doc(digits):
    """P^4 with E = O + O and F = O(1) + O(10^(digits - 1)), no polarization."""
    return {
        "ambient": {"kind": "projective_space", "dims": [4]},
        "E": [[0], [0]],
        "F": [[1], [10 ** (digits - 1)]],
    }


@pytest.mark.parametrize("as_json", [False, True])
def test_report_refuses_numbers_past_the_digit_limit(tmp_path, capsys, as_json):
    # the smooth Euler number has about four times the digits of the degree
    path = write_config(tmp_path, _long_degree_doc(1201))
    code = main(["report", path] + ["--json"] * as_json)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("guard violation: report field euler_smooth ")
    assert f"{sys.get_int_max_str_digits()} digits" in captured.err
    assert "Traceback" not in captured.err


def test_report_without_the_digit_limit_function(monkeypatch, capsys):
    # CPython before 3.10.7 has neither sys.get_int_max_str_digits nor a
    # limit, so a report prints as it does with the limit switched off
    golden = Path(__file__).parent / "golden"
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert main(["report", str(golden / "quintic.json")]) == 0
    assert capsys.readouterr().out == (golden / "report-quintic.out").read_text()


def test_report_prints_numbers_under_the_digit_limit(tmp_path, capsys):
    path = write_config(tmp_path, _long_degree_doc(1000))
    assert main(["report", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(type(x) in (int, bool) for x in _numbers(doc))


def _report_with(euler_smooth, intersection_numbers=None):
    return InvariantReport(
        dim=4,
        rank=2,
        calabi_yau=True,
        ih_milnor=0,
        euler_smooth=euler_smooth,
        euler_ih=0,
        euler_resolution=0,
        intersection_numbers=intersection_numbers,
    )


@pytest.mark.parametrize("sign", [1, -1])
def test_check_printable_refuses_from_one_digit_past_the_limit(sign):
    limit = 700  # CPython refuses a limit from 1 to 639
    widest, past = sign * (10**limit - 1), sign * 10**limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        _check_printable(_report_with(widest, [1, widest, 1]))
        refusal = f" has more than {limit} digits, the interpreter's limit"
        with pytest.raises(GuardError, match=f"^report field euler_smooth{refusal}"):
            _check_printable(_report_with(past))
        with pytest.raises(
            GuardError, match=rf"^report field intersection_numbers\[1\]{refusal}"
        ):
            _check_printable(_report_with(0, [1, past, 1]))
        sys.set_int_max_str_digits(0)  # no limit
        _check_printable(_report_with(past, [1, past, 1]))
    finally:
        sys.set_int_max_str_digits(saved)


@settings(max_examples=20, deadline=None)
@given(st.integers(900, 1300), st.booleans())
def test_report_with_a_long_degree_exits_cleanly(tmp_path_factory, digits, as_json):
    path = tmp_path_factory.getbasetemp() / "long.json"
    path.write_text(json.dumps(_long_degree_doc(digits)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", str(path)] + ["--json"] * as_json)
    assert code in (0, 3)
    if code == 3:
        assert err.getvalue().startswith("guard violation: report field ")


def test_report_honors_non_cy_opt_in(tmp_path, capsys):
    doc = {
        "ambient": {"kind": "projective_space", "dims": [4]},
        "E": [[0], [0]],
        "F": [[2], [2]],
        "polarization": [1],
        "flags": {"allow_non_cy_c2": True},
    }
    code = main(["report", write_config(tmp_path, doc), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["c2.H"] == 24 and out["c2.L"] == 56


# -- table command -----------------------------------------------------------------


def test_table1_values_and_check(capsys):
    assert main(["table", "table1", "--check"]) == 0
    out = capsys.readouterr().out
    assert "2    7      9      5    44    50    46" in out
    assert "check passed" in out


def test_table2_values_and_check(capsys):
    assert main(["table", "table2", "--check"]) == 0
    out = capsys.readouterr().out
    for count in (9, 12, 17, 16, 20):
        assert f" {count}" in out


def test_table_json_documents(capsys):
    assert main(["table", "table1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == [[2, 7, 9, 5, 44, 50, 46]]
    assert main(["table", "table2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row[1] for row in doc["rows"]] == [9, 12, 17, 16, 20]


def test_table_unknown_name_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["table", "table3"])
    assert err.value.code == 2


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_verify_nonpositive_depth_exits_two(depth, capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--depth", depth])
    assert err.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, row, column, computed",
    [("table1", 1, "ODPs", 46), ("table2", 4, "ODPs", 16)],
    ids=["table1", "table2"],
)
def test_table_check_exits_one_on_mismatch(
    name, row, column, computed, monkeypatch, capsys
):
    # one wrong expected value fails the check on the row and column it sits in
    from detcalc import cli

    label, config, expected = cli.TABLES[name].rows[row - 1]
    wrong = (*expected[:-1], computed + 1)
    rows = list(cli.TABLES[name].rows)
    rows[row - 1] = (label, config, wrong)
    monkeypatch.setitem(cli.TABLES, name, cli.TABLES[name]._replace(rows=rows))
    assert main(["table", name]) == 0
    table = capsys.readouterr().out
    assert main(["table", name, "--check"]) == 1
    captured = capsys.readouterr()
    assert captured.out == table
    assert captured.err == (
        f"check failed: row {row}, {column}: "
        f"computed {computed}, expected {computed + 1}\n"
    )


# -- verify command ------------------------------------------------------------------


def test_verify_passes(capsys):
    assert main(["verify", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "all suites passed" in out


def test_verify_exits_one_on_suite_failure(monkeypatch, capsys):
    from detcalc import cli
    from detcalc.verify import SuiteResult

    broken = SuiteResult("broken-suite", cases=1, failures=["identity does not hold"])
    monkeypatch.setattr(cli, "run_all", lambda depth, seed: [broken])
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "verification failed" in captured.out
    assert "identity does not hold" in captured.err


# -- one parser per process --------------------------------------------------------


def test_main_builds_no_parser_per_call(monkeypatch, tmp_path, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["table", "table1", "--check"]) == 0
    assert main(["verify", "--depth", "1"]) == 0
    assert main(["report", write_config(tmp_path, QUINTIC_DOC), "--json"]) == 0
    with pytest.raises(SystemExit) as err:
        main(["verify", "--depth", "0"])
    assert err.value.code == 2
    assert built == []


def test_help_wraps_to_the_columns_of_each_call(monkeypatch, capsys):
    widths = {}
    for columns in (40, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        widths[columns] = max(map(len, capsys.readouterr().out.splitlines()))
    # argparse leaves two columns of margin
    assert widths[40] <= 38
    assert 100 < widths[200] <= 198


@pytest.mark.parametrize(
    "argv, code, golden, stderr",
    [
        (["table", "table1", "--check"], 0, "table1-check.out", ""),
        (["verify", "--depth", "0"], 2, None, "--depth: must be at least 1, got 0"),
    ],
    ids=["table1-check", "depth-0"],
)
def test_module_entry_point_in_a_fresh_process(argv, code, golden, stderr):
    root = Path(__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    golden_dir = root / "tests" / "golden"
    expected = "" if golden is None else (golden_dir / golden).read_text()
    done = subprocess.run(
        [sys.executable, "-m", "detcalc.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == code
    assert done.stdout == expected
    assert stderr in done.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--depth", "6"],
        ["table", "table1", "--check"],
        ["--help"],
        ["verify", "-h"],
    ],
    ids=["verify-depth-6", "table1-check", "help", "verify-help"],
)
def test_closed_stdout_exits_141_without_a_traceback(argv, unbuffered):
    # the read end of the pipe is closed before the process starts, so its
    # first write to standard output fails with a broken pipe
    root = Path(__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "detcalc.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    if unbuffered and argv[-1] in ("--help", "-h"):
        # argparse itself writes the help unbuffered, drops the failed write
        # and exits 0
        assert done.returncode in (0, 141)
    else:
        assert done.returncode == 141
    assert done.stderr == ""
