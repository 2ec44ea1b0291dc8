"""CLI contract: JSON schemas, exit codes, determinism, round-trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import singideal
from singideal.cli import (EXIT_OK, EXIT_PARSE, EXIT_TOLERANCE, RunConfig,
                           SpecError, _build_inputs, main)
from singideal.ideals import IdealReport
from singideal.groups import make_group


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
    from singideal import norms
    monkeypatch.setattr(norms, "block_residuals",
                        lambda g, u, block: [0.5] * len(block.floats))
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


@pytest.mark.parametrize("group, family", [
    ('{"kind":"product","factors":5}', '{"minimal":true}'),
    ('{"kind":"cyclic","n":6}', '{"subgroups":5}'),
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


def test_hls_depth_past_the_cap_exits_1_without_allocating(capsys):
    argv = ["hls", "--group", '{"kind":"cyclic","n":6}',
            "--family", '{"subgroups":[[0],[0,3],[0,2,4]]}']
    for depth in ("333", "99999999999999999999"):
        tracemalloc.start()
        code = main(argv + ["--depth", depth])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.out == ""
        assert captured.err.startswith(f"error: hls depth {depth} needs ")
        assert captured.err.count("\n") == 1
        assert peak < 2 ** 20


@pytest.mark.parametrize("command", ["analyze", "witness", "normcheck"])
def test_coset_counts_past_the_caps_exit_1_without_allocating(capsys, command):
    # C2^10 with its 1023 minimal subgroups has 523776 cosets: 5.4e8 coset
    # matrix entries (512 MiB of int8) and 2.7e11 compose table entries
    group = json.dumps({"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 10})
    tracemalloc.start()
    code = main([command, "--group", group, "--family", '{"minimal": true}'])
    peak = tracemalloc.get_traced_memory()[1]
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


# hls depths: small ones, and ones past the neighbourhood point cap for
# every group (depth 1414 already is for C1), which must be refused before
# anything is allocated
_depths = st.one_of(st.integers(-3, 4), st.integers(1414, 10 ** 30))


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
    if command == "hls" and depth >= 1414:
        assert code == EXIT_PARSE
