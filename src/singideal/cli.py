"""Command-line frontend: vanishing analysis, the abelian AI atlas, the
truncated non-Hausdorff construction, norm-equation sweeps and witness
extraction.  All reports are JSON with potentially-large integers (the
witness coefficients) serialized as decimal strings.

Exit codes: 0 success (``--help`` included), 1 parse/usage error or size
cap exceeded, with one ``error:`` line on stderr, 2 internal inconsistency
(every command but normcheck), 3 norm tolerance exceeded or internal
inconsistency, such as an inexact compression p f p (normcheck).  Every
run ends in ``main``: the handlers return the report and the exit code,
and ``main`` writes the one report.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import hls as hls_mod
from . import norms
from .atlas import ai_atlas
from .groupoid import build_coset_groupoid
from .groups import (FamilyNotInvariantError, SizeCapError, make_group,
                     parse_family)
from .ideals import (InternalInconsistencyError, class_I_check, integer_witness)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INCONSISTENT = 2
EXIT_TOLERANCE = 3


class SpecError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    group_spec: Optional[dict] = None
    family_spec: Optional[dict] = None
    depth: int = 3
    max_order: int = 64
    trials: int = 100
    seed: int = 0
    tol: float = 1e-8
    output: Optional[str] = None
    auto_close: bool = True

    def __post_init__(self):
        if self.depth < 1:
            raise SpecError("depth must be >= 1")
        if self.max_order < 1:
            raise SpecError("max-order must be >= 1")
        if self.trials < 1:
            raise SpecError("trials must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise SpecError("tol must be finite and positive")


def _load_json_arg(arg: str, what: str) -> dict:
    """Accept inline JSON or a path to a JSON file: an argument that starts
    with ``{`` or ``[`` is inline, so that an inline array is refused as
    not an object rather than read as a path."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecError(f"{what} argument is neither inline JSON nor a readable "
                            f"UTF-8 file: {arg} ({exc})") from exc
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecError(f"invalid {what} JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpecError(f"{what} JSON must be an object")
    return obj


def _build_inputs(config: RunConfig):
    # TypeError: a guard for a spec value of a JSON type that no field
    # check covers (those raise ValueError, "factors": 5 included);
    # RecursionError: products nested too deeply
    try:
        group = make_group(config.group_spec)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise SpecError(f"bad group spec: {exc}") from exc
    try:
        family = parse_family(group, config.family_spec, auto_close=config.auto_close)
    except FamilyNotInvariantError:
        raise
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise SpecError(f"bad family spec: {exc}") from exc
    if not family.members:
        raise SpecError("bad family spec: the family is empty")
    return group, family


def _emit(report: dict, output: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecError(f"cannot write the report to {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_analyze(config: RunConfig, group, family) -> tuple[dict, int]:
    report = class_I_check(group, family)
    data = report.to_json_dict()
    # the q-map rows are the coset rows (the coset groupoid's arrows are the
    # distinct cosets in order), so the q kernel is the certified kernel
    data["cross_checks"]["q_kernel_dim"] = report.algebraic_kernel_dim
    data["cross_checks"]["q_kernel_agrees"] = True
    data["group"] = {"name": group.name, "order": group.order}
    data["family"] = [list(sub) for sub in family.members]
    return data, EXIT_OK


def cmd_witness(config: RunConfig, group, family) -> tuple[dict, int]:
    witness = integer_witness(group, family)
    data = {"witness": None}
    if witness is not None:
        data["witness"] = {"coeffs": [str(int(c)) for c in witness.coeffs]}
    return data, EXIT_OK


def cmd_hls(config: RunConfig, group, family) -> tuple[dict, int]:
    truncation = hls_mod.build_hls(group, family, config.depth)
    witness = integer_witness(group, family)
    report = hls_mod.hls_report(truncation, witness)
    report["group"] = {"name": group.name, "order": group.order}
    return report, EXIT_OK


def cmd_ai_atlas(config: RunConfig) -> tuple[dict, int]:
    return ai_atlas(config.max_order), EXIT_OK


def cmd_normcheck(config: RunConfig, group, family) -> tuple[dict, int]:
    norms.check_sweep_work(group, family, config.trials)
    groupoid = build_coset_groupoid(group, family)
    subsets, maxima = norms.norm_sweep(groupoid, config.trials, config.seed)
    keys = [",".join(map(str, subset)) for subset in subsets]
    worst = max(maxima)
    report = {
        "group": {"name": group.name, "order": group.order},
        "trials": config.trials,
        "seed": config.seed,
        "tol": config.tol,
        "unit_subsets": [subset for _, subset in sorted(zip(keys, subsets))],
        "max_residual_per_subset": dict(zip(keys, maxima)),
        "max_residual": worst,
        "within_tol": worst < config.tol,
    }
    return report, EXIT_OK if worst < config.tol else EXIT_TOLERANCE


class _Parser(argparse.ArgumentParser):
    """A usage error raises SpecError, so that it ends as every malformed
    input does: exit 1 and one line."""

    def error(self, message):
        raise SpecError(message)


# parsing leaves the parser unchanged, and building one costs 20 parses
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="singideal",
        description="Vanishing tests, witnesses and norm checks for "
                    "singular-ideal analogues on finite groups and groupoids.")
    sub = parser.add_subparsers(dest="command", required=True)

    # options left out are left out of the namespace, so that RunConfig
    # holds the only copy of each default
    def add_command(name, summary, spec=True):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        if spec:
            p.add_argument("--group", required=True,
                           help="group spec: inline JSON or a path")
            p.add_argument("--family", required=True,
                           help="family spec: inline JSON or a path")
            p.add_argument("--no-auto-close", dest="auto_close", action="store_false",
                           help="reject non-invariant families instead of closing them")
        p.add_argument("--out", dest="output", metavar="OUT",
                       help="write the JSON report here")
        return p

    add_command("analyze", "kernel dimensions, witness, class verdicts")
    add_command("witness", "print the integer witness only")
    p = add_command("hls", "truncated non-Hausdorff construction report")
    p.add_argument("--depth", type=int)
    p = add_command("ai-atlas", "abelian AI sweep with cross-validation", spec=False)
    p.add_argument("--max-order", type=int)
    p = add_command("normcheck", "norm-equation residual sweep")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        for what in ("group", "family"):
            if what in args:
                args[f"{what}_spec"] = _load_json_arg(args.pop(what), what)
        config = RunConfig(**args)
        handler = {
            "analyze": cmd_analyze,
            "witness": cmd_witness,
            "hls": cmd_hls,
            "ai-atlas": cmd_ai_atlas,
            "normcheck": cmd_normcheck,
        }[config.command]
        inputs = () if config.command == "ai-atlas" else _build_inputs(config)
        try:
            report, code = handler(config, *inputs)
        except InternalInconsistencyError as exc:
            # a failed consistency check in any command; normcheck's exit
            # code reads it as a failed norm check
            report = {"error": "internal-inconsistency", "detail": str(exc)}
            code = EXIT_TOLERANCE if config.command == "normcheck" else EXIT_INCONSISTENT
        _emit(report, config.output)
        return code
    except (SpecError, FamilyNotInvariantError, SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
