"""CLI contract: JSON schemas, exit codes, determinism, round-trips."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import singideal
from singideal import cli, exact, groups, norms
from singideal.cli import (EXIT_INCONSISTENT, EXIT_OK, EXIT_PARSE,
                           EXIT_TOLERANCE, RunConfig, SpecError, _build_inputs,
                           main)
from singideal.groupoid import build_coset_groupoid, reduction_groupoid
from singideal.hls import NEIGHBORHOOD_POINT_CAP
from singideal.ideals import IdealReport
from singideal.groups import (SizeCapError, make_group, minimal_subgroups,
                              symmetric_group)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_analyze_c2(capsys):
    code, out = run(capsys, ["analyze", "--group", '{"kind":"cyclic","n":2}',
                             "--family", '{"subgroups":[[0,1]]}'])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["algebraic_kernel_dim"] == 1
    assert data["full_kernel_dim"] == 1
    assert data["witness"]["coeffs"] == ["1", "-1"]
    assert data["cross_checks"]["q_kernel_dim"] == 1
    assert data["in_class_I"] is True


def test_analyze_v4_minimal(capsys):
    spec = '{"kind":"product","factors":[{"kind":"cyclic","n":2},{"kind":"cyclic","n":2}]}'
    code, out = run(capsys, ["analyze", "--group", spec, "--family", '{"minimal":true}'])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["algebraic_kernel_dim"] == 0
    assert data["witness"] is None
    assert data["weak_containment"] is True


def test_analyze_s3_conjugacy_class(capsys):
    code, out = run(capsys, ["analyze", "--group", '{"kind":"symmetric","n":3}',
                             "--family", '{"conjugacy_class_of":[0,2]}'])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["algebraic_kernel_dim"] >= 1
    coeffs = [int(c) for c in data["witness"]["coeffs"]]
    assert sorted(coeffs) == [-1, -1, -1, 1, 1, 1]  # the sign element


def test_analyze_round_trip(capsys):
    code, out = run(capsys, ["analyze", "--group", '{"kind":"cyclic","n":2}',
                             "--family", '{"subgroups":[[0,1]]}'])
    data = json.loads(out)
    group = make_group({"kind": "cyclic", "n": 2})
    report = IdealReport.from_json_dict(data, group=group)
    assert report.to_json_dict() == {k: data[k] for k in report.to_json_dict()}


def test_determinism(capsys):
    argv = ["normcheck", "--group", '{"kind":"cyclic","n":6}',
            "--family", '{"subgroups":[[0,3]]}', "--trials", "5", "--seed", "3"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    # S4 with its minimal family has 13 units, so every subset's residuals
    # come from the batched path; a fresh interpreter prints the same bytes
    argv = ["normcheck", "--group", '{"kind":"symmetric","n":4}',
            "--family", '{"minimal":true}', "--trials", "3", "--seed", "1"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    src = os.path.dirname(os.path.dirname(singideal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run([sys.executable, "-m", "singideal.cli", *argv],
                           capture_output=True, text=True, env=env, timeout=120)
    assert code1 == code2 == fresh.returncode == EXIT_OK
    assert out1 == out2 == fresh.stdout


def test_parse_errors(capsys):
    code, _ = run(capsys, ["analyze", "--group", "not json", "--family", "{}"])
    assert code == EXIT_PARSE
    code, _ = run(capsys, ["analyze", "--group", '{"kind":"wat"}',
                           "--family", '{"minimal":true}'])
    assert code == EXIT_PARSE
    code, _ = run(capsys, ["analyze", "--group", '{"kind":"cyclic","n":6}',
                           "--family", '{"subgroups":[[0,1,2]]}'])
    assert code == EXIT_PARSE  # not a subgroup


_C2 = ["--group", '{"kind":"cyclic","n":2}', "--family", '{"minimal":true}']


@pytest.mark.parametrize("argv", [
    ["normcheck", *_C2, "--trials", "abc"],
    ["hls", *_C2, "--depth", "1.5"],
    ["analyze", "--group", '{"kind":"cyclic","n":2}'],
    ["bogus"],
    ["analyze", *_C2, "--bogus"],
    [],
], ids=["trials-abc", "depth-1.5", "missing-family", "unknown-command",
        "unknown-option", "no-arguments"])
def test_usage_errors_exit_1_with_one_line(capsys, argv):
    # argparse's own exit 2 and usage block would read as an internal
    # inconsistency
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_PARSE and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: singideal ")


def test_no_auto_close(capsys):
    argv = ["analyze", "--group", '{"kind":"symmetric","n":3}',
            "--family", '{"subgroups":[[0,2]]}']
    with pytest.warns(UserWarning):
        code, _ = run(capsys, argv)
    assert code == EXIT_OK
    code, _ = run(capsys, argv + ["--no-auto-close"])
    assert code == EXIT_PARSE


def test_witness_command(capsys):
    code, out = run(capsys, ["witness", "--group", '{"kind":"cyclic","n":2}',
                             "--family", '{"subgroups":[[0,1]]}'])
    assert code == EXIT_OK
    assert json.loads(out)["witness"]["coeffs"] == ["1", "-1"]
    code, out = run(capsys, ["witness", "--group", '{"kind":"cyclic","n":4}',
                             "--family", '{"subgroups":[[0]]}'])
    assert json.loads(out)["witness"] is None


def test_hls_command(capsys):
    code, out = run(capsys, ["hls", "--group", '{"kind":"cyclic","n":2}',
                             "--family", '{"subgroups":[[0,1]]}', "--depth", "3"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["extremely_dangerous"] is True
    assert data["witness_lifted"] is True
    assert data["verify_singular"] is True
    assert data["essential_fiber"] == [[0, 1]]

    code, out = run(capsys, ["hls", "--group", '{"kind":"cyclic","n":4}',
                             "--family", '{"subgroups":[[0],[0,2]]}'])
    data = json.loads(out)
    assert data["extremely_dangerous"] is False


@pytest.mark.parametrize("command", ["witness", "hls", "analyze"])
def test_a_failed_kernel_certificate_exits_2(capsys, monkeypatch, command):
    """A reconstruction that returns a wrong vector fails the certificate
    of the witness's basis: exit 2 and one JSON object, no traceback."""
    real = exact._reconstruct

    def off_by_one(*args):
        basis = real(*args).copy()
        basis[0, 0] += 1
        return basis
    monkeypatch.setattr(exact, "_reconstruct", off_by_one)
    code, out = run(capsys, [command, "--group", '{"kind":"cyclic","n":4}',
                             "--family", '{"subgroups":[[0,2]]}'])
    assert code == EXIT_INCONSISTENT
    assert json.loads(out) == {"error": "internal-inconsistency",
                               "detail": "a kernel basis vector fails M x = 0"}


def test_ai_atlas_small(capsys):
    code, out = run(capsys, ["ai-atlas", "--max-order", "4"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["disagreements"] == 0
    by_name = {r["name"]: r for r in data["rows"]}
    assert by_name["C2 x C2"]["ai_span_oracle"] is False
    assert all(r["ai_span_oracle"] for name, r in by_name.items() if name != "C2 x C2")
    # orders 1..4 give C1, C2, C3, C4, C2xC2
    assert len(data["rows"]) == 5

    code, out = run(capsys, ["ai-atlas", "--max-order", "1"])
    data = json.loads(out)
    assert len(data["rows"]) == 1 and data["rows"][0]["ai_span_oracle"] is True


def test_ai_atlas_order8_flags(capsys):
    code, out = run(capsys, ["ai-atlas", "--max-order", "8"])
    data = json.loads(out)
    flagged = {r["name"] for r in data["rows"] if not r["ai_span_oracle"]}
    assert "C4 x C2" in flagged and "C2 x C2 x C2" in flagged
    assert data["disagreements"] == 0


def test_normcheck_exit_codes(capsys, monkeypatch):
    code, out = run(capsys, ["normcheck", "--group", '{"kind":"cyclic","n":6}',
                             "--family", '{"subgroups":[[0,3]]}',
                             "--trials", "3", "--seed", "0"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["within_tol"] is True and data["max_residual"] < 1e-8
    # exit code 3 when the residual exceeds the tolerance
    def failing(groupoid, trials, seed):
        subsets = norms.unit_subsets(len(groupoid.units))
        return subsets, [0.5] * len(subsets)

    monkeypatch.setattr(norms, "norm_sweep", failing)
    code, out = run(capsys, ["normcheck", "--group", '{"kind":"symmetric","n":3}',
                             "--family", '{"conjugacy_class_of":[0,2]}',
                             "--trials", "2"])
    assert code == EXIT_TOLERANCE
    assert json.loads(out)["within_tol"] is False


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-8"])
def test_normcheck_rejects_bad_tol(capsys, tol):
    code = main(["normcheck", "--group", '{"kind":"cyclic","n":2}',
                 "--family", '{"subgroups":[[0,1]]}', "--trials", "1",
                 f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def nested_product(depth):
    """A C2 spec wrapped in ``depth`` one-factor products, as JSON text."""
    text = '{"kind":"cyclic","n":2}'
    for _ in range(depth):
        text = '{"kind":"product","factors":[' + text + ']}'
    return text


# 1-D tables are reported as non-square, not as over the order cap
NON_SQUARE_TABLES = ('{"kind":"cayley","table":[]}',
                     '{"kind":"cayley","table":[0,1]}')

C6 = '{"kind":"cyclic","n":6}'
# a container of the wrong JSON type (a dict or a string iterates as its
# keys or characters, a number not at all) and a missing required key:
# the one line names the field
FIELD_MESSAGES = {
    ('{"kind":"product","factors":{}}', '{"minimal":true}'):
        "bad group spec: factors must be a list, got {}",
    ('{"kind":"product","factors":"ab"}', '{"minimal":true}'):
        "bad group spec: factors must be a list, got 'ab'",
    ('{"kind":"product","factors":5}', '{"minimal":true}'):
        "bad group spec: factors must be a list, got 5",
    ('{"kind":"product"}', '{"minimal":true}'):
        "bad group spec: product group spec has no 'factors' key",
    ('{"kind":"cyclic"}', '{"minimal":true}'): "bad group spec: cyclic group spec has no 'n' key",
    ('{"kind":"symmetric"}', '{"minimal":true}'):
        "bad group spec: symmetric group spec has no 'n' key",
    ('{"kind":"dihedral"}', '{"minimal":true}'):
        "bad group spec: dihedral group spec has no 'n' key",
    ('{"kind":"cayley"}', '{"minimal":true}'):
        "bad group spec: cayley group spec has no 'table' key",
    (C6, '{"subgroups":5}'): "bad family spec: subgroups must be a list, got 5",
    (C6, '{"subgroups":[5]}'): "bad family spec: subgroups entry must be a list, got 5",
    (C6, '{"subgroups":[[0,3],{"0":0}]}'):
        "bad family spec: subgroups entry must be a list, got {'0': 0}",
    (C6, '{"conjugacy_class_of":5}'): "bad family spec: conjugacy_class_of must be a list, got 5",
    (C6, '{"conjugacy_class_of":null}'):
        "bad family spec: conjugacy_class_of must be a list, got None",
    # two or more family forms: none is silently dropped
    (C6, '{"subgroups":[[0,3]],"minimal":true}'):
        "bad family spec: family spec gives more than one form: 'subgroups', 'minimal'",
    (C6, '{"minimal":false,"subgroups":[[0,3]]}'):
        "bad family spec: family spec gives more than one form: 'subgroups', 'minimal'",
    (C6, '{"minimal":true,"conjugacy_class_of":[0,3]}'):
        "bad family spec: family spec gives more than one form: 'minimal', 'conjugacy_class_of'",
    (C6, '{"conjugacy_class_of":[0,3],"subgroups":[[0,3]],"minimal":true}'):
        "bad family spec: family spec gives more than one form: "
        "'subgroups', 'minimal', 'conjugacy_class_of'",
}


@pytest.mark.parametrize("group, family", [
    *FIELD_MESSAGES,
    ('{"kind":"cyclic","n":6}', '{"subgroups":[[0,99]]}'),
    ('{"kind":"cyclic","n":6}', '{"conjugacy_class_of":[0,99]}'),
    ('{"kind":"cyclic","n":2}', '{"subgroups":[[0,1,-1]]}'),
    ('{"kind":"cyclic","n":6}', '{"subgroups":[[0,3.5]]}'),
    ('{"kind":"cyclic","n":6}', '{"subgroups":[]}'),
    ('{"kind":"cyclic","n":1}', '{"minimal":true}'),
    ('{"kind":"cyclic","n":1.5}', '{"subgroups":[[0]]}'),
    ('{"kind":"cyclic","n":true}', '{"subgroups":[[0]]}'),
    ('{"kind":"dihedral","n":"3"}', '{"subgroups":[[0]]}'),
    ('{"kind":"cyclic","n":2}', '{"subgroups":[[0,0]]}'),
    ('{"kind":"cyclic","n":2}', '{"subgroups":[[0,0,1]]}'),
    ('{"kind":"cyclic","n":2}', '{"conjugacy_class_of":[0,1,1]}'),
    ('{"kind":"cayley","table":[[0.5]]}', '{"subgroups":[[0]]}'),
    ('{"kind":"cayley","table":[["0"]]}', '{"subgroups":[[0]]}'),
    ('{"kind":"cayley","table":[[0,1],[1,100000000000000000000]]}',
     '{"subgroups":[[0]]}'),
    ('{"kind":"cayley","table":[]}', '{"subgroups":[[0]]}'),
    ('{"kind":"cayley","table":[0,1]}', '{"subgroups":[[0]]}'),
    pytest.param(nested_product(600), '{"minimal":true}', id="nested-600"),
    pytest.param(nested_product(3000), '{"minimal":true}', id="nested-3000"),
])
def test_malformed_specs_exit_1(capsys, group, family):
    code = main(["analyze", "--group", group, "--family", family])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    if group in NON_SQUARE_TABLES:
        assert captured.err == "error: bad group spec: Cayley table must be square\n"
    if (group, family) in FIELD_MESSAGES:
        assert captured.err == f"error: {FIELD_MESSAGES[group, family]}\n"


def test_an_empty_product_is_the_trivial_group(capsys):
    code, out = run(capsys, ["analyze", "--group", '{"kind":"product","factors":[]}',
                             "--family", '{"subgroups":[[0]]}'])
    assert code == EXIT_OK
    assert json.loads(out)["group"] == {"name": "C1", "order": 1}


@pytest.mark.parametrize("case", ["group-is-a-directory", "group-not-utf8",
                                  "out-in-a-missing-directory", "out-is-a-directory"])
def test_unreadable_spec_or_unwritable_out_exits_1(capsys, tmp_path, case):
    bad_spec = tmp_path / "latin1.json"
    bad_spec.write_bytes('{"kind":"cyclic","n":2,"name":"\xe9"}'.encode("latin-1"))
    group, out = {
        "group-is-a-directory": (str(tmp_path), None),
        "group-not-utf8": (str(bad_spec), None),
        "out-in-a-missing-directory": (None, str(tmp_path / "missing" / "x.json")),
        "out-is-a-directory": (None, str(tmp_path)),
    }[case]
    argv = ["analyze", "--group", group or '{"kind":"cyclic","n":2}',
            "--family", '{"subgroups":[[0,1]]}']
    code = main(argv + (["--out", out] if out else []))
    captured = capsys.readouterr()
    assert code == EXIT_PARSE and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_out_file_and_group_file(capsys, tmp_path):
    spec_path = tmp_path / "group.json"
    spec_path.write_text('{"kind":"cyclic","n":2}')
    out_path = tmp_path / "report.json"
    code, out = run(capsys, ["analyze", "--group", str(spec_path),
                             "--family", '{"subgroups":[[0,1]]}',
                             "--out", str(out_path)])
    assert code == EXIT_OK and out == ""
    data = json.loads(out_path.read_text())
    assert data["algebraic_kernel_dim"] == 1


def test_group_spec_past_the_recursion_limit_is_a_spec_error():
    # json.loads stops the nested texts above; this spec object reaches make_group
    spec = {"kind": "cyclic", "n": 2}
    for _ in range(3000):
        spec = {"kind": "product", "factors": [spec]}
    with pytest.raises(SpecError, match="^bad group spec: maximum recursion"):
        _build_inputs(RunConfig("analyze", group_spec=spec,
                                family_spec={"minimal": True}))


def test_hls_deep_report_without_a_witness_exits_0(capsys):
    # C6 with {0} among its members has no witness: the report reads no
    # neighbourhood and lifts nothing, so a depth past the point cap answers
    argv = ["hls", "--group", '{"kind":"cyclic","n":6}',
            "--family", '{"subgroups":[[0],[0,3],[0,2,4]]}']
    for depth in ("333", "99999999999999999999"):
        tracemalloc.start()
        try:
            code = main(argv + ["--depth", depth])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK and report["depth"] == int(depth)
        assert report["witness_lifted"] is False
        assert peak < 2 ** 20
    # S4 minimal: depth 80 needs 1012800 neighbourhood points, 79 fewer
    # than the cap; both reports agree but for the depth
    argv = ["hls", "--group", '{"kind":"symmetric","n":4}', "--family", '{"minimal":true}']
    reports = []
    for depth in ("79", "80"):
        assert main(argv + ["--depth", depth]) == EXIT_OK
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[1] == {**reports[0], "depth": 80}


def test_hls_lift_past_the_cap_exits_1_without_allocating(capsys):
    # C6 {0, 3} has a witness, lifted to 3 level points per level: 3 * 333334
    # passes the cap
    argv = ["hls", "--group", '{"kind":"cyclic","n":6}', "--family", '{"subgroups":[[0,3]]}']
    for depth, points in (("333334", 1000002), ("99999999999999999999", 3 * 10 ** 20 - 3)):
        tracemalloc.start()
        try:
            code = main(argv + ["--depth", depth])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == ""
        assert captured.err == (f"error: hls depth {depth} lifts the witness to {points} "
                                "level points, over the cap 1000000\n")
        assert peak < 2 ** 20


@pytest.mark.parametrize("command", ["analyze", "witness", "normcheck"])
def test_coset_counts_past_the_caps_exit_1_without_allocating(capsys, monkeypatch, command):
    # C2^10 with its 1023 minimal subgroups has 523776 cosets: 5.4e8 coset
    # matrix entries (512 MiB of int8) and 2.7e11 compose table entries;
    # every command refuses it from the member sizes, before numbering a coset
    def no_table(*args):
        raise AssertionError("the coset table is built past the cap")
    monkeypatch.setattr(groups, "_coset_table", no_table)
    group = json.dumps({"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 10})
    tracemalloc.start()
    try:
        code = main([command, "--group", group, "--family", '{"minimal": true}'])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == EXIT_PARSE and captured.out == ""
    assert captured.err.startswith("error: the coset ")
    assert "523776" in captured.err and captured.err.count("\n") == 1
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("max_order", ["-3", "0", "65"])
def test_ai_atlas_max_order_out_of_range(capsys, max_order):
    code = main(["ai-atlas", "--max-order", max_order])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


# JSON-ish spec values: every JSON type, ints of any size (negatives
# included), floats (NaN and infinities included) and nested lists
_scalars = st.one_of(st.integers(-3, 40), st.integers(), st.floats(),
                     st.booleans(), st.text(max_size=3), st.none())
_junk = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3),
                     max_leaves=6)
_ints = st.one_of(st.integers(-3, 40), _junk)
_elements = st.one_of(st.lists(_ints, max_size=4), _junk)


def _with_junk_keys(specs):
    return st.builds(lambda spec, extra: {**extra, **spec}, specs,
                     st.dictionaries(st.text(max_size=3), _junk, max_size=2))


_group_leaves = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["cyclic", "dihedral",
                                                    "symmetric"]),
                           "n": _ints}),
    st.just({"kind": "quaternion8"}),
    st.fixed_dictionaries({"kind": st.just("cayley"), "table": st.one_of(
        st.integers(1, 6).map(lambda n: [[(a + b) % n for b in range(n)]
                                         for a in range(n)]),
        st.lists(_elements, max_size=4), _junk)}),
    st.fixed_dictionaries({"kind": _junk}, optional={"n": _ints}))
_group_specs = st.recursive(
    _with_junk_keys(_group_leaves),
    lambda inner: _with_junk_keys(st.fixed_dictionaries(
        {"kind": st.just("product"),
         "factors": st.one_of(st.lists(inner, max_size=3), _junk)})),
    max_leaves=3)
_family_specs = _with_junk_keys(st.one_of(
    st.fixed_dictionaries({"minimal": _junk}),
    st.fixed_dictionaries({"subgroups": st.one_of(
        st.lists(_elements, max_size=3), _junk)}),
    st.fixed_dictionaries({"conjugacy_class_of": _elements}),
    st.just({})))
# well-formed specs, so that many examples get past parsing
_valid_leaves = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["cyclic", "dihedral",
                                                    "symmetric"]),
                           "n": st.integers(1, 4)}),
    st.just({"kind": "quaternion8"}))
_valid_group_specs = st.one_of(_valid_leaves, st.fixed_dictionaries(
    {"kind": st.just("product"),
     "factors": st.lists(_valid_leaves, min_size=1, max_size=2)}))
_valid_family_specs = st.one_of(
    st.just({"minimal": True}), st.just({"subgroups": [[0]]}),
    st.fixed_dictionaries({"subgroups": st.lists(st.lists(
        st.integers(0, 3), min_size=1, max_size=3), min_size=1, max_size=2)}),
    st.fixed_dictionaries({"conjugacy_class_of": st.lists(
        st.integers(0, 7), max_size=3)}))


def _order_or_zero(group_spec):
    try:
        return make_group(group_spec).order
    except Exception:  # main must reject the spec; the test asserts how
        return 0


# hls depths: small ones, and ones past the point cap, where every witness
# lift is refused before anything is allocated
_depths = st.one_of(st.integers(-3, 4), st.integers(NEIGHBORHOOD_POINT_CAP + 1, 10 ** 30))


@settings(max_examples=150)
@given(command=st.sampled_from(["analyze", "witness", "hls", "normcheck"]),
       group_spec=st.one_of(_valid_group_specs, _group_specs),
       family_spec=st.one_of(_valid_family_specs, _family_specs),
       depth=_depths)
def test_cli_fuzz_exit_codes(command, group_spec, family_spec, depth):
    # shapes, not sizes: groups of order above 40 are left out
    assume(_order_or_zero(group_spec) <= 40)
    argv = [command, "--group", json.dumps(group_spec),
            "--family", json.dumps(family_spec)]
    if command == "normcheck":
        argv += ["--trials", "1"]
    if command == "hls":
        argv += ["--depth", str(depth)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        json.loads(out.getvalue())
    if code == EXIT_PARSE:
        assert out.getvalue() == ""
        assert len([line for line in err.getvalue().splitlines()
                    if line.startswith("error: ")]) == 1
    if command == "hls" and depth > NEIGHBORHOOD_POINT_CAP and code == EXIT_OK:
        assert json.loads(out.getvalue())["witness_lifted"] is False


def sweep_work(groupoid):
    """Sum of d^3 over the blocks one normcheck trial eigensolves, counted
    on the groupoid: for every distinct part X ∩ reach(u), u in X, reach(u)
    the ranges of the arrows with source u, one p f p block at one unit of
    u's orbit, and every block of the reduction to the part."""
    subsets = norms.unit_subsets(len(groupoid.units))
    dims = [len(arrows) for arrows in groupoid.arrows_by_source]
    reach = [{a.range for a in groupoid.arrows if a.source == v} for v in range(len(dims))]
    work = 0
    for part in {frozenset(units) & reach[u] for units in subsets for u in units}:
        work += dims[min(part)] ** 3
        reduced, _ = reduction_groupoid(groupoid, sorted(part))
        work += sum(len(arrows) ** 3 for arrows in reduced.arrows_by_source)
    return work


# every group and family spec of the benchmark workloads besides the
# catalog's single-class families (small-sweep): large-analyze, and
# normcheck and reduced_norm in norm-sweep
BENCHMARK_SPECS = [
    ({"kind": "symmetric", "n": 5}, {"minimal": True}),
    ({"kind": "dihedral", "n": 50}, {"minimal": True}),
    ({"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 6}, {"minimal": True}),
    ({"kind": "cyclic", "n": 360}, {"subgroups": [[0, 180]]}),
    ({"kind": "symmetric", "n": 4}, {"minimal": True}),
    ({"kind": "dihedral", "n": 6}, {"minimal": True}),
    ({"kind": "cyclic", "n": 40}, {"subgroups": [[0]]}),
    ({"kind": "cyclic", "n": 65}, {"subgroups": [[0]]}),
    ({"kind": "cyclic", "n": 70}, {"subgroups": [[0]]}),
]


def test_sweep_work_counts_the_blocks_normcheck_eigensolves(monkeypatch, catalog,
                                                            catalog_cases):
    cases = [(g, minimal_subgroups(g)) for g in catalog if g.order > 1]
    s5 = symmetric_group(5)
    cases += list(catalog_cases) + [(s5, minimal_subgroups(s5))]
    benchmark = [_build_inputs(RunConfig("normcheck", group_spec=group, family_spec=family))
                 for group, family in BENCHMARK_SPECS]
    # the cap admits one trial of every case; the largest is D50 minimal,
    # 50 reflections in 2 orbits of 25 with d = 50, at 8.8e7
    works = [norms.check_sweep_work(group, family, 1) for group, family in cases + benchmark]
    assert 8e7 < max(works) <= norms.NORMCHECK_WORK_CAP
    # C2^7 minimal: 127 one-unit orbits with d = 64 and one block of each
    # side per unit, where a reduction per subset counted 4.3e9
    c2_7 = _build_inputs(RunConfig("normcheck", group_spec={
        "kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 7},
        family_spec={"minimal": True}))
    assert norms.check_sweep_work(*c2_7, 1) == 127 * 2 * 64 ** 3
    # D100 minimal, now admitted: 2 orbits of 50 reflections with d = 100
    # take 50 + 1225 + 1 p f p blocks each, and each reflection's
    # reductions {u}, 49 pairs and the orbit take c = 2 per unit; the
    # rotation subgroups of order 2 and 5 (d = 100, 40) are one-unit orbits
    d100 = _build_inputs(RunConfig("normcheck", group_spec={"kind": "dihedral", "n": 100},
                                   family_spec={"minimal": True}))
    assert norms.check_sweep_work(*d100, 1) == (2 * (50 + 1225 + 1) * 100 ** 3
                                                + 100 * (2 ** 3 * (1 + 8 * 49) + 100 ** 3)
                                                + 2 * (100 ** 3 + 40 ** 3)) < 2.7e9
    # with the floor at 1, one trial is priced at its work: a cap at the
    # work admits it and a cap one below refuses it
    monkeypatch.setattr(norms, "NORMCHECK_TRIAL_FLOOR", 1)
    for group, family in cases:
        work = sweep_work(build_coset_groupoid(group, family))
        monkeypatch.setattr(norms, "NORMCHECK_WORK_CAP", work)
        assert norms.check_sweep_work(group, family, 1) == work
        monkeypatch.setattr(norms, "NORMCHECK_WORK_CAP", work - 1)
        with pytest.raises(SizeCapError, match=f"^the coset groupoid of {group.name} "):
            norms.check_sweep_work(group, family, 1)


@pytest.mark.parametrize("group, family", [
    ({"kind": "dihedral", "n": 200}, {"minimal": True}),
    ({"kind": "cyclic", "n": 5040}, {"subgroups": [[0]]}),
])
def test_normcheck_work_past_the_cap_exits_1_before_the_build(capsys, monkeypatch,
                                                              group, family):
    # D200 minimal and C5040 {[0]} need 8.2e10 and 2.6e11: minutes of
    # eigensolves; both are refused from the coset table alone
    built, family_obj = _build_inputs(RunConfig("normcheck", group_spec=group,
                                                family_spec=family))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="over the cap"):
            norms.check_sweep_work(built, family_obj, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20

    def no_build(*args):
        raise AssertionError("the groupoid is built past the cap")
    monkeypatch.setattr(cli, "build_coset_groupoid", no_build)
    code = main(["normcheck", "--group", json.dumps(group), "--family", json.dumps(family),
                 "--trials", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE and captured.out == ""
    assert captured.err.startswith(f"error: the coset groupoid of {built.name} has ")
    assert captured.err.count("\n") == 1


def test_normcheck_trials_past_the_cap_exit_1_before_the_build(capsys, monkeypatch):
    # C6 {[0,3]} takes 54 units of work a trial, priced at the floor: 10^8
    # trials would run for minutes, each trial under the per-trial cap
    real_build = cli.build_coset_groupoid

    def no_build(*args):
        raise AssertionError("the groupoid is built past the cap")
    monkeypatch.setattr(cli, "build_coset_groupoid", no_build)

    def run(n, members, trials):
        code = main(["normcheck", "--group", json.dumps({"kind": "cyclic", "n": n}),
                     "--family", json.dumps({"subgroups": members}),
                     "--trials", str(trials)])
        return code, capsys.readouterr()

    start = time.perf_counter()
    code, captured = run(6, [[0, 3]], 10 ** 8)
    assert time.perf_counter() - start < 1
    assert code == EXIT_PARSE and captured.out == ""
    assert captured.err == ("error: the coset groupoid of C6 has 3 arrows and blocks of "
                            "dimension up to 3: a normcheck trial eigensolves blocks of sum "
                            "d^3 = 54, priced at least 5000, so --trials 100000000 costs "
                            "5e+11, over the cap 2e+10\n")
    # the bound is trials x max(work, floor): C6 {[0,3]} at the floor, and
    # C20 {[0]} (two 20 x 20 blocks, 16000) above it
    assert norms.NORMCHECK_TRIAL_FLOOR == 5000
    monkeypatch.setattr(cli, "build_coset_groupoid", real_build)
    for n, members, work in ((6, [[0, 3]], 5000), (20, [[0]], 16000)):
        monkeypatch.setattr(norms, "NORMCHECK_WORK_CAP", 3 * work)
        assert run(n, members, 3)[0] == EXIT_OK
        code, captured = run(n, members, 4)
        assert code == EXIT_PARSE and captured.out == ""
        assert captured.err.startswith(f"error: the coset groupoid of C{n} has ")
        assert captured.err.endswith(f", so --trials 4 costs {4 * work:.2g}, "
                                     f"over the cap {3 * work:.2g}\n")
        assert captured.err.count("\n") == 1


def test_normcheck_trials_past_float_range_exit_1_with_one_line(capsys):
    # the cost of 10^400 trials has no float; it is printed rounded up, and
    # 5000 digits pass Python's int-string limit, so argparse refuses them
    def run(trials):
        code = main(["normcheck", "--group", '{"kind":"cyclic","n":6}',
                     "--family", '{"subgroups":[[0,3]]}', "--trials", trials])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        return captured.err

    assert run(str(10 ** 400)).endswith(" costs 5.0e+403, over the cap 2e+10\n")
    assert run(str(10 ** 400 + 1)).endswith(" costs 5.1e+403, over the cap 2e+10\n")
    assert run("1" + "0" * 5000).startswith("error: argument --trials: invalid int value: ")


@settings(max_examples=60)
@given(group_spec=_valid_group_specs, family_spec=_valid_family_specs,
       cap=st.one_of(st.integers(0, 3000), st.integers(0, 10 ** 6)))
def test_normcheck_work_cap_fuzz(group_spec, family_spec, cap):
    # the CLI fuzz specs under caps that bite: exit 1 with one line exactly
    # when the one trial, priced at its work counted on the groupoid or at
    # the floor, whichever is more, passes the cap
    assume(_order_or_zero(group_spec) <= 40)
    try:
        group, family = _build_inputs(RunConfig("normcheck", group_spec=group_spec,
                                                family_spec=family_spec))
    except (SpecError, ValueError):
        assume(False)
    work = sweep_work(build_coset_groupoid(group, family))
    event("refused" if max(work, norms.NORMCHECK_TRIAL_FLOOR) > cap else "admitted")
    argv = ["normcheck", "--group", json.dumps(group_spec),
            "--family", json.dumps(family_spec), "--trials", "1"]
    out, err = io.StringIO(), io.StringIO()
    real_cap = norms.NORMCHECK_WORK_CAP
    norms.NORMCHECK_WORK_CAP = cap
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        norms.NORMCHECK_WORK_CAP = real_cap
    if max(work, norms.NORMCHECK_TRIAL_FLOOR) > cap:
        assert code == EXIT_PARSE and out.getvalue() == ""
        assert err.getvalue().startswith("error: the coset groupoid of ")
        assert err.getvalue().count("\n") == 1
    else:
        assert code == EXIT_OK and json.loads(out.getvalue())["within_tol"]


# a spread of the tier-1 catalog, S5, D50 and C2^6 minimal, C360
# {[0,180]}, and two explicit families: S4 {[0,1]}, closed under
# conjugation with a warning, and the S3 transpositions, already closed
# but moved among themselves by conjugation: the reports whose bytes
# every refactor must keep
DIGEST_CASES = [
    ("C1", {"kind": "cyclic", "n": 1}, {"subgroups": [[0]]}),
    ("C2", {"kind": "cyclic", "n": 2}, {"subgroups": [[0, 1]]}),
    ("C4", {"kind": "cyclic", "n": 4}, {"subgroups": [[0], [0, 2]]}),
    ("C6", {"kind": "cyclic", "n": 6}, {"subgroups": [[0, 3]]}),
    ("C8", {"kind": "cyclic", "n": 8}, {"minimal": True}),
    ("C9", {"kind": "cyclic", "n": 9}, {"subgroups": [[0, 3, 6]]}),
    ("C12", {"kind": "cyclic", "n": 12}, {"subgroups": [[0, 6]]}),
    ("C12", {"kind": "cyclic", "n": 12}, {"minimal": True}),
    ("C2^2", {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 2},
     {"minimal": True}),
    ("C2^3", {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 3},
     {"minimal": True}),
    ("C2xC4", {"kind": "product", "factors": [{"kind": "cyclic", "n": 2},
                                              {"kind": "cyclic", "n": 4}]},
     {"minimal": True}),
    ("S3", {"kind": "symmetric", "n": 3}, {"conjugacy_class_of": [0, 2]}),
    ("S4", {"kind": "symmetric", "n": 4}, {"minimal": True}),
    ("D4", {"kind": "dihedral", "n": 4}, {"minimal": True}),
    ("D5", {"kind": "dihedral", "n": 5}, {"minimal": True}),
    ("Q8", {"kind": "quaternion8"}, {"minimal": True}),
    ("S5", {"kind": "symmetric", "n": 5}, {"minimal": True}),
    ("D50", {"kind": "dihedral", "n": 50}, {"minimal": True}),
    ("C2^6", {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 6},
     {"minimal": True}),
    ("C360", {"kind": "cyclic", "n": 360}, {"subgroups": [[0, 180]]}),
    ("S4", {"kind": "symmetric", "n": 4}, {"subgroups": [[0, 1]]}),
    ("S3", {"kind": "symmetric", "n": 3}, {"subgroups": [[0, 1], [0, 2], [0, 5]]}),
]

# the norm-sweep normcheck cases, at 20 trials, S5 minimal, whose orbits
# of 10 and 15 units have 60-dimensional blocks that span several chunks,
# at 2, and C2^7 minimal, 8129 subsets over 127 one-unit orbits, at 1:
# their residuals pin the float bits of the reduced norms on both sides of
# every norm equation.  Each of those draws one block of trials; S5 at 9
# draws two, of 8 and 1 (2044 arrows, NORM_BATCH = 2^14 values a block)
NORMCHECK_DIGEST_CASES = [
    ("S4", {"kind": "symmetric", "n": 4}, {"minimal": True}, 20),
    ("D6", {"kind": "dihedral", "n": 6}, {"minimal": True}, 20),
    ("C70", {"kind": "cyclic", "n": 70}, {"subgroups": [[0]]}, 20),
    ("S5", {"kind": "symmetric", "n": 5}, {"minimal": True}, 2),
    ("C2^7", {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 7},
     {"minimal": True}, 1),
    ("S5 in two blocks", {"kind": "symmetric", "n": 5}, {"minimal": True}, 9),
]


def report_digests():
    """(digests, warned): the SHA-256 of the stdout of analyze, witness and
    hls --depth 3 on every DIGEST_CASES entry, of normcheck --seed 0 with
    its trial count on every NORMCHECK_DIGEST_CASES entry, and of ai-atlas
    --max-order 16; and the messages of the warnings each run raised, for
    the runs that raised any."""
    runs = {"ai-atlas 16": ["ai-atlas", "--max-order", "16"]}
    for name, group, family in DIGEST_CASES:
        spec = ["--group", json.dumps(group), "--family", json.dumps(family)]
        for command, extra in (("analyze", []), ("witness", []), ("hls", ["--depth", "3"])):
            runs[f"{command} {name} {json.dumps(family)}"] = [command, *spec, *extra]
    for name, group, family, trials in NORMCHECK_DIGEST_CASES:
        runs[f"normcheck {name} {json.dumps(family)}"] = [
            "normcheck", "--group", json.dumps(group), "--family", json.dumps(family),
            "--trials", str(trials), "--seed", "0"]
    digests, warned = {}, {}
    for key, argv in runs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_OK, argv
        digests[key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if caught:
            warned[key] = [str(w.message) for w in caught]
    return digests, warned


# recorded before the exact layer took over every rational-to-integer
# conversion (D50 and C2^6 before the kernel certificate moved into it,
# normcheck before the regular representation stopped padding its floats,
# the explicit S4 and S3 families before the coset table moved into groups,
# normcheck S5 before the p f p side shared its blocks across subsets,
# normcheck C2^7 before the reduction side went by orbit part, normcheck
# S4, D6 and S5 when the p f p side took one key per part: a unit of the
# part's orbit outside the part, whose block is the others' permuted, so
# its eigenvalues differ from theirs in the last bits; C70 and C2^7 have
# one-unit orbits and kept their keys and bytes; normcheck S5 in two blocks
# before the sweep moved from the CLI into norms.norm_sweep);
# a change that moves a byte of these reports fails here
PINNED_DIGESTS = {
    'ai-atlas 16':
        "9b8018ced3b0b6ff7598abedd8427fd2e412156f3f5587db7de8b7d7f5ee14c0",
    'analyze C1 {"subgroups": [[0]]}':
        "7c5b8329e31e332ba484d29d1ea22371b052e9df5ce2616ef821444321d63418",
    'witness C1 {"subgroups": [[0]]}':
        "e5e32bcd98fb01ca8eb528c223dba6f184e4a133b85d26a65e8f790f3b805315",
    'hls C1 {"subgroups": [[0]]}':
        "93f85540f77723552026736b5f9619cb1b236f6828ac30207bc72c3f5b1b3653",
    'analyze C2 {"subgroups": [[0, 1]]}':
        "23b70b56ea852f1c6f3643f731b24e5dde9c35339542b52b50f858003eeefc33",
    'witness C2 {"subgroups": [[0, 1]]}':
        "d39fcb704afda2f8d64e159fc8c76c2a0657f85dc84a09e25a83904ff062a58b",
    'hls C2 {"subgroups": [[0, 1]]}':
        "3000c61a988eb5ec209f30792184f9dd5b8877c7e6ea6d661596fbe1d529dfb5",
    'analyze C4 {"subgroups": [[0], [0, 2]]}':
        "b324abb06517b59172ecb609b621bc0b287435c3f7d22031bec96bbd00c52f0f",
    'witness C4 {"subgroups": [[0], [0, 2]]}':
        "e5e32bcd98fb01ca8eb528c223dba6f184e4a133b85d26a65e8f790f3b805315",
    'hls C4 {"subgroups": [[0], [0, 2]]}':
        "f2743bfa6ce3b15257fdc12348264dfbed4c71d053c527e7302ef0abcfa3b833",
    'analyze C6 {"subgroups": [[0, 3]]}':
        "0f7b1176dd0a20a60d552e2f1b25602be2ff30cdd255d6f6459d39ff7591751b",
    'witness C6 {"subgroups": [[0, 3]]}':
        "14ed59ed721d85b20322545637dd8ca1f5bfe6c005b5ec7f54e6edbd001d5385",
    'hls C6 {"subgroups": [[0, 3]]}':
        "97e20c4769f90fca6e4ff0507665a5ad79699ef2dd75e4432ded8e20e12ee925",
    'analyze C8 {"minimal": true}':
        "c0078f7e5c2d770b7107da8da6de2e925d5de0db2817a32d4cd043259352d846",
    'witness C8 {"minimal": true}':
        "a2d2fadc77bbc48a58e882c46a6ab5a1a0136d432877ddedc7fdf819d5d48efc",
    'hls C8 {"minimal": true}':
        "b57b10185cb31067ee5489a4c2e44f8d27731f71f36a0f2d3aefe2eb6fdfe5de",
    'analyze C9 {"subgroups": [[0, 3, 6]]}':
        "2546dac99f3ea082479d1bed8b28b79ea7103a81feb6c1340d47c20d87d94116",
    'witness C9 {"subgroups": [[0, 3, 6]]}':
        "249bbf0a3173eca987c8f1740b4c01cbe75d3fa317d7d04bbf215fca4870b47b",
    'hls C9 {"subgroups": [[0, 3, 6]]}':
        "ad23e017ff5bab08ed84276d4be86f86362c69ddc0bb8c1e5dbcb2952e73c053",
    'analyze C12 {"subgroups": [[0, 6]]}':
        "c4ad4ffdbfa5e5dfbc9a38e1b9e29d059c43bb08f95572d55bed11e13afc45bb",
    'witness C12 {"subgroups": [[0, 6]]}':
        "c4f4062ac47dc0580e131f1f4b38e2ed1e4f51075efedfc12870acf25667049e",
    'hls C12 {"subgroups": [[0, 6]]}':
        "84aec12571682b2c31eb2490b805e92924fe6afd0ce4f858aef330bcfd0e1b79",
    'analyze C12 {"minimal": true}':
        "74e7ac55b57c8897612cf88a75e62ad36d552a60397f56787cb223296bba1090",
    'witness C12 {"minimal": true}':
        "0d00f1c7792ef153acdabd87cb6bd5e8a0ffe55ee5f11346a49c543af86e5f86",
    'hls C12 {"minimal": true}':
        "0e29a248681cfd4a9e1594d226f925e7f889ab09abdb520303c8ea5f63a34be5",
    'analyze C2^2 {"minimal": true}':
        "aa678f9516936204d5c99ac23fb9e7b6a8bf3b0663da6a734401783b4487ee10",
    'witness C2^2 {"minimal": true}':
        "e5e32bcd98fb01ca8eb528c223dba6f184e4a133b85d26a65e8f790f3b805315",
    'hls C2^2 {"minimal": true}':
        "f81c01fc0504dfd83c55d23f630aa4f123d7cd6ab8559458b851a1dd83d6e52b",
    'analyze C2^3 {"minimal": true}':
        "f54aff311518741ca8344fc40d4a152d9f3e09ec5ae97e2bcb2ed75b4a2ca529",
    'witness C2^3 {"minimal": true}':
        "e5e32bcd98fb01ca8eb528c223dba6f184e4a133b85d26a65e8f790f3b805315",
    'hls C2^3 {"minimal": true}':
        "241f55b18b9cf5b09700742755f4503ee72aa3e4c04fd1021ed3062cfe731fe6",
    'analyze C2xC4 {"minimal": true}':
        "8db330972e95b4a50dbf108e42a2a1cc74e525e53b6de21b0fd4217e863f0f38",
    'witness C2xC4 {"minimal": true}':
        "e5e32bcd98fb01ca8eb528c223dba6f184e4a133b85d26a65e8f790f3b805315",
    'hls C2xC4 {"minimal": true}':
        "77d599575684abb2369f79e8f9a6616cf92e5bfe444646b028adf3318640a3ff",
    'analyze S3 {"conjugacy_class_of": [0, 2]}':
        "b7eecd1303aecdc147a31ad179a667804c7c6c85bfb50c1b2e5642ad70c5ec0b",
    'witness S3 {"conjugacy_class_of": [0, 2]}':
        "f71f1a00b2f93779006f2f7802c9122648a1e0b2e1e9b331f496dd04a474ee68",
    'hls S3 {"conjugacy_class_of": [0, 2]}':
        "6a7510802652a34fef909f4e52e01fba87a8c9b43b9658c214104e18ba83f7db",
    'analyze S4 {"minimal": true}':
        "702f3896b2df7fd9200c10b106897ad6e3e0fb609430cf01011dc5593058ebe1",
    'witness S4 {"minimal": true}':
        "e5e32bcd98fb01ca8eb528c223dba6f184e4a133b85d26a65e8f790f3b805315",
    'hls S4 {"minimal": true}':
        "db320ceaf9dd056f7be400a604820105efcdb83a733ffef420a4e74c02ae3092",
    'analyze D4 {"minimal": true}':
        "18933a4fd5ff81007d1a55865d062aa089ef4d7e0fbc1d352eb40ee2db1c947f",
    'witness D4 {"minimal": true}':
        "e5e32bcd98fb01ca8eb528c223dba6f184e4a133b85d26a65e8f790f3b805315",
    'hls D4 {"minimal": true}':
        "2159a71bf3b7c76e39f37e007df78388e6963549606889b791d23c60f529e91c",
    'analyze D5 {"minimal": true}':
        "644a6f17943260c63ebb451d1f42de5e5a0f9b36d52d93ae97bacaf34cad0050",
    'witness D5 {"minimal": true}':
        "e5e32bcd98fb01ca8eb528c223dba6f184e4a133b85d26a65e8f790f3b805315",
    'hls D5 {"minimal": true}':
        "725e35bf266f449f1bb0b6a3c361b4f61e402098aaae21506f5e32167093e8ef",
    'analyze Q8 {"minimal": true}':
        "9bc0fc319f7990ff69a422fea79d85c0f1c55adc492d732a97e5199be9f545f9",
    'witness Q8 {"minimal": true}':
        "a183986b48034575ad090bf39e7f78b5739b995f024a7f70ce1d644216865b14",
    'hls Q8 {"minimal": true}':
        "dcbfb90fc89c0db4e746a2d1ac14a2153288a775732e9e0ded2972da889670cb",
    'analyze S5 {"minimal": true}':
        "5a50cf6b98d70c40d6b738af7a3443c1eb7a8befcd78bf210e689f2cb460ddc3",
    'witness S5 {"minimal": true}':
        "e5e32bcd98fb01ca8eb528c223dba6f184e4a133b85d26a65e8f790f3b805315",
    'hls S5 {"minimal": true}':
        "90cfd7c51367a7b59e0df3099f29ef23eab7de08d0042831734cda3b4ac938e6",
    'analyze D50 {"minimal": true}':
        "36c9aaed0178a0bb6ff736d031ce7f42093641dd12f14ab6bbf3bac39704cd68",
    'witness D50 {"minimal": true}':
        "e5e32bcd98fb01ca8eb528c223dba6f184e4a133b85d26a65e8f790f3b805315",
    'hls D50 {"minimal": true}':
        "05fb0f2b9d3134522233118a0c3b614944fdc5f2ecd70d0b240a694f46a40b25",
    'analyze C2^6 {"minimal": true}':
        "f86b6636d13a5597ab90de09d400ac9128ccdd9518ab9148753be8216d073ec3",
    'witness C2^6 {"minimal": true}':
        "e5e32bcd98fb01ca8eb528c223dba6f184e4a133b85d26a65e8f790f3b805315",
    'hls C2^6 {"minimal": true}':
        "13c169206b3399d242e55ca24abc9face1c38194d019f9663f9ac1bb11a5c5f6",
    'analyze C360 {"subgroups": [[0, 180]]}':
        "edcd5dd7625e8e0fd0dbdd2e08238dcf3a2d367945b3ebef1479122284b92355",
    'witness C360 {"subgroups": [[0, 180]]}':
        "2e74ec5fca67bcc2f1dbde0d7d68f039a1289d177918267284ab0fb4c27fd1b3",
    'hls C360 {"subgroups": [[0, 180]]}':
        "d1a48770aebe20d9bce06db0be45e7d60b2aedc5fdde437c555a42e665ae339f",
    'analyze S4 {"subgroups": [[0, 1]]}':
        "cc52f061a1a0d5185bfba457e03e9472c21b685f6b96c20534a314da1786ec1e",
    'witness S4 {"subgroups": [[0, 1]]}':
        "e02bab0859395389e235050de4505949b82f855a4f531075d30c841571fe2fa0",
    'hls S4 {"subgroups": [[0, 1]]}':
        "dd8f16239dbf81fefe7aa9d14ecbfff1a9a434c6c57470d10d364aff8f340337",
    'analyze S3 {"subgroups": [[0, 1], [0, 2], [0, 5]]}':
        "b7eecd1303aecdc147a31ad179a667804c7c6c85bfb50c1b2e5642ad70c5ec0b",
    'witness S3 {"subgroups": [[0, 1], [0, 2], [0, 5]]}':
        "f71f1a00b2f93779006f2f7802c9122648a1e0b2e1e9b331f496dd04a474ee68",
    'hls S3 {"subgroups": [[0, 1], [0, 2], [0, 5]]}':
        "6a7510802652a34fef909f4e52e01fba87a8c9b43b9658c214104e18ba83f7db",
    'normcheck S4 {"minimal": true}':
        "0ee74e4631fa5ad6c02ccd4e47bf08216a05fbc03a53633f06c76c6beeccb603",
    'normcheck D6 {"minimal": true}':
        "75fd108cbdfcb766d154831ce0fbc4a12e0335dba7d27f83e10c2f2901e525e5",
    'normcheck C70 {"subgroups": [[0]]}':
        "12b45609bf6a804c2a73624ab1dda9430c12ea3c9607f52fbf52dd8806a4c75a",
    'normcheck S5 {"minimal": true}':
        "b2a2261b875ee10c0ce1d927cc24c6f5d31b49eb7bcc92a8b97a3729f92e6a16",
    'normcheck C2^7 {"minimal": true}':
        "1fd70e6fbf610c5322198e0aa5df770ab1f04ee57ac3ba0870998002f93839ae",
    'normcheck S5 in two blocks {"minimal": true}':
        "f904be542be40837fd3461e57b10babdf6bda92f9eba3920cb18f81b890e9630",
}


CLOSURE_WARNING = ("subgroup family was not conjugation invariant; "
                   "closed it under conjugation")


def test_reports_match_the_pinned_digests():
    digests, warned = report_digests()
    # the one family in the cases that is not closed under conjugation
    family = json.dumps({"subgroups": [[0, 1]]})
    assert warned == {f"{command} S4 {family}": [CLOSURE_WARNING]
                      for command in ("analyze", "witness", "hls")}
    assert len(digests) == 3 * len(DIGEST_CASES) + len(NORMCHECK_DIGEST_CASES) + 1
    assert digests == PINNED_DIGESTS
