"""The three workloads: fixed case lists, their set-up and their operations.

An operation is one in-process ``singideal.cli.main`` call or one
``singideal.norms.reduced_norm`` call.  ``run`` returns the exit code and
the report text; the report bytes are what the determinism check hashes
and what ``checks.py`` compares with its independent references.

Only the standard library is imported at module level, so that the timed
set-up (import plus building the case list) starts from a process that
has not yet imported numpy or singideal.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

HLS_DEPTH = 3
ATLAS_MAX_ORDER = 64
NORMCHECK_TRIALS = 20
NORM_DRAWS = 20          # seeded reduced_norm calls per groupoid

MINIMAL = {"minimal": True}
TRIVIAL = {"subgroups": [[0]]}


def _cyclic(n):
    return {"kind": "cyclic", "n": n}


def _product(*ns):
    return {"kind": "product", "factors": [_cyclic(n) for n in ns]}


# the tier-1 test catalog (tests/conftest.py), by spec
CATALOG = [(f"C{n}", _cyclic(n)) for n in range(1, 13)] + [
    ("C2^2", _product(2, 2)),
    ("C2^3", _product(2, 2, 2)),
    ("C2xC4", _product(2, 4)),
    ("S3", {"kind": "symmetric", "n": 3}),
    ("S4", {"kind": "symmetric", "n": 4}),
    ("D4", {"kind": "dihedral", "n": 4}),
    ("D5", {"kind": "dihedral", "n": 5}),
    ("Q8", {"kind": "quaternion8"}),
]

# S5, D50 and C2^6 have trivial kernels (the mod-p certificate settles
# them); C360 with {[0,180]} has a 180-dimensional kernel and takes the
# full elimination, RREF, integerize and same_subspace path.
LARGE_ANALYZE = [
    ("S5", {"kind": "symmetric", "n": 5}, MINIMAL),
    ("D50", {"kind": "dihedral", "n": 50}, MINIMAL),
    ("C2^6", _product(2, 2, 2, 2, 2, 2), MINIMAL),
    ("C360", _cyclic(360), {"subgroups": [[0, 180]]}),
]

# matrix dimensions on both sides of 64: C65 and C70 are above it
NORMCHECK_CASES = [
    ("S4", {"kind": "symmetric", "n": 4}, MINIMAL),
    ("D6", {"kind": "dihedral", "n": 6}, MINIMAL),
    ("C70", _cyclic(70), TRIVIAL),
]
NORM_CASES = [
    ("C40", _cyclic(40), TRIVIAL),
    ("C65", _cyclic(65), TRIVIAL),
    ("C70", _cyclic(70), TRIVIAL),
    ("S4", {"kind": "symmetric", "n": 4}, MINIMAL),
]


@dataclass
class Op:
    """One operation; ``info`` is what the reference check needs."""

    name: str
    run: Callable[[], tuple]
    info: dict = field(default_factory=dict)
    check: Optional[Callable[[int, str], Optional[str]]] = None


def _cli_op(cli, name, argv, info):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()
    return Op(name, run, dict(info, argv=argv))


def _norm_op(norms, name, groupoid, f, info):
    def run():
        return 0, repr(norms.reduced_norm(groupoid, f))
    return Op(name, run, dict(info, groupoid=groupoid, f=f))


def _spec_args(command, group_spec, family_spec):
    return [command, "--group", json.dumps(group_spec, sort_keys=True),
            "--family", json.dumps(family_spec, sort_keys=True)]


def _analysis_ops(cli, label, group_spec, family_spec, commands, members=None):
    info = {"group_spec": group_spec, "members": members,
            "minimal": family_spec == MINIMAL}
    ops = []
    for command in commands:
        argv = _spec_args(command, group_spec, family_spec)
        if command == "hls":
            argv += ["--depth", str(HLS_DEPTH)]
        ops.append(_cli_op(cli, f"{command} {label}", argv,
                           dict(info, command=command)))
    return ops


def _small_sweep(si, seed):
    groups = si["groups"]
    ops = [_cli_op(si["cli"], f"ai-atlas {ATLAS_MAX_ORDER}",
                   ["ai-atlas", "--max-order", str(ATLAS_MAX_ORDER)],
                   {"command": "ai-atlas"})]
    for label, spec in CATALOG:
        group = groups.make_group(spec)
        families = {groups.conjugation_closure(group, [sub]).members
                    for sub in groups.enumerate_subgroups(group)}
        for members in sorted(families):
            family_spec = {"subgroups": [list(s) for s in members]}
            tag = f"{label} {len(members)}x{len(members[0])}:{list(members[0])}"
            ops += _analysis_ops(si["cli"], tag, spec, family_spec,
                                 ("analyze", "witness", "hls"),
                                 members=[list(s) for s in members])
    return ops


def _large_analyze(si, seed):
    ops = []
    for label, spec, family_spec in LARGE_ANALYZE:
        ops += _analysis_ops(si["cli"], label, spec, family_spec, ("analyze",),
                             members=family_spec.get("subgroups"))
    label, spec, family_spec = LARGE_ANALYZE[0]
    ops += _analysis_ops(si["cli"], label, spec, family_spec, ("witness", "hls"))
    return ops


def _random_values(rng: random.Random, size: int) -> tuple:
    """Numerators uniform in [-9, 9], denominators in {1, 2, 3, 4}."""
    return tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
                 for _ in range(size))


def _norm_sweep(si, seed):
    ops = []
    for label, spec, family_spec in NORMCHECK_CASES:
        argv = _spec_args("normcheck", spec, family_spec) + [
            "--trials", str(NORMCHECK_TRIALS), "--seed", str(seed)]
        ops.append(_cli_op(si["cli"], f"normcheck {label}", argv,
                           {"command": "normcheck", "group_spec": spec,
                            "members": family_spec.get("subgroups"),
                            "seed": seed}))
    rng = random.Random(seed)
    groups, groupoid_mod = si["groups"], si["groupoid"]
    for label, spec, family_spec in NORM_CASES:
        group = groups.make_group(spec)
        groupoid = groupoid_mod.build_coset_groupoid(
            group, groups.parse_family(group, family_spec))
        for draw in range(NORM_DRAWS):
            f = groupoid_mod.GroupoidFunction(
                groupoid, _random_values(rng, groupoid.num_arrows()))
            ops.append(_norm_op(si["norms"], f"reduced_norm {label} #{draw}",
                                groupoid, f, {"command": "reduced_norm"}))
    return ops


_CASE_LISTS = {"small-sweep": _small_sweep, "large-analyze": _large_analyze,
             "norm-sweep": _norm_sweep}
WORKLOADS = tuple(_CASE_LISTS)


def timed_setup(workload: str, seed: int):
    """Import singideal and build the case list; returns (seconds, ops)."""
    t0 = time.perf_counter()
    si = {name: importlib.import_module(f"singideal.{name}")
          for name in ("cli", "groups", "groupoid", "norms")}
    ops = _CASE_LISTS[workload](si, seed)
    return time.perf_counter() - t0, ops
