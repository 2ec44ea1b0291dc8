"""Independent references for every operation's output.

None of these references is produced by the code under test: kernel
dimensions come from ``np.linalg.matrix_rank`` of a 0/1 coset matrix
built here from the Cayley table, witnesses are substituted into coset
sums computed here, the atlas verdict is compared with "the group is
cyclic" read off its prime-power factors, the hls lift with whether a
witness exists, and ``reduced_norm`` with the largest 2-norm over units
of the left-regular matrices.  The Cayley table itself, and
``regular_rep_matrix`` for the norm reference, are the program's.

One disagreement is a known defect of the program and is reported apart
from the failures: ``spectral_norm`` starts power iteration from the
all-ones vector, an exact eigenvector of a group's Gram matrix, and
cross-checks the result only up to ``KNOWN_DEFECT_DIM`` dimensions, so
above that ``reduced_norm`` can fall short of the true norm.  A
``reduced_norm`` below the reference on a larger matrix is a
``KnownDefect``; any other mismatch, and any mismatch at or below that
size, is a failure.
"""

from __future__ import annotations

import json
from math import gcd, prod
from typing import Optional

import numpy as np
from singideal import groups, norms

from workloads import HLS_DEPTH, NORMCHECK_TRIALS

NORM_RTOL = 1e-9
KNOWN_DEFECT_DIM = 64


class KnownDefect(str):
    """A disagreement with the reference that is the known norm defect."""


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _prime_power_base(q: int) -> Optional[int]:
    for p in range(2, q + 1):
        if q % p == 0:
            while q % p == 0:
                q //= p
            return p if q == 1 else None
    return None


def minimal_members(table: np.ndarray) -> list:
    """Subgroups of prime order, sorted by size then elements."""
    subs = set()
    for g in range(1, table.shape[0]):
        powers = [g]
        while powers[-1] != 0:
            powers.append(int(table[powers[-1], g]))
        if _is_prime(len(powers)):
            subs.add(tuple(sorted(powers)))
    return [list(s) for s in sorted(subs, key=lambda s: (len(s), s))]


def coset_matrix(table: np.ndarray, members: list) -> np.ndarray:
    """0/1 matrix with one row per distinct left coset gX, X in the family."""
    blocks = []
    for X in members:
        cosets = np.unique(np.sort(table[:, X], axis=1), axis=0)
        block = np.zeros((cosets.shape[0], table.shape[0]))
        np.put_along_axis(block, cosets, 1.0, axis=1)
        blocks.append(block)
    return np.concatenate(blocks)


def _witness_error(coeffs: list, matrix: np.ndarray) -> Optional[str]:
    if not any(coeffs):
        return "witness is zero"
    if gcd(*coeffs) != 1:
        return "witness is not primitive"
    for row in matrix:
        if sum(coeffs[x] for x in np.flatnonzero(row)) != 0:
            return "witness fails a coset sum"
    return None


class _AnalysisRef:
    """Family, kernel dimension and coset matrix of one (group, family) case."""

    def __init__(self, info):
        table = np.asarray(groups.make_group(info["group_spec"]).table,
                           dtype=np.int64)
        self.members = (minimal_members(table) if info["minimal"]
                        else info["members"])
        self.matrix = coset_matrix(table, self.members)
        self.kernel_dim = table.shape[0] - int(np.linalg.matrix_rank(self.matrix))

    def witness_error(self, witness) -> Optional[str]:
        if (witness is None) != (self.kernel_dim == 0):
            return f"witness presence disagrees with kernel dim {self.kernel_dim}"
        if witness is None:
            return None
        return _witness_error([int(c) for c in witness["coeffs"]], self.matrix)


def _check_analyze(ref, data) -> Optional[str]:
    dims = (data["algebraic_kernel_dim"], data["full_kernel_dim"],
            data["cross_checks"]["q_kernel_dim"])
    if dims != (ref.kernel_dim,) * 3:
        return f"kernel dims {dims}, reference {ref.kernel_dim}"
    if data["family"] != ref.members:
        return "family differs from the reference family"
    if data["weak_containment"] != (ref.kernel_dim == 0) or not data["in_class_I"]:
        return "class verdicts disagree with the reference kernel"
    return ref.witness_error(data["witness"])


def _check_hls(ref, data) -> Optional[str]:
    has_witness = ref.kernel_dim > 0
    # the limit set of the constant tail (X, n) is X itself, so the
    # essential fibre is the family and the dangerous-point test asks
    # whether the trivial subgroup is missing from it
    expected = {"depth": HLS_DEPTH,
                "essential_fiber": ref.members,
                "extremely_dangerous": [0] not in ref.members,
                "witness_lifted": has_witness,
                "verify_singular": True if has_witness else None}
    for key, value in expected.items():
        if data[key] != value:
            return f"hls {key} = {data[key]!r}, reference {value!r}"
    return None


def _abelian_class_count(max_order: int) -> int:
    """Number of abelian groups of each order up to max_order, summed."""
    def partitions(n, cap):
        return 1 if n == 0 else sum(partitions(n - k, k)
                                    for k in range(1, min(n, cap) + 1))
    total = 0
    for n in range(1, max_order + 1):
        count, m, p = 1, n, 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            count *= partitions(e, e)
            p += 1
        total += count
    return total


def _check_atlas(max_order, data) -> Optional[str]:
    rows = data["rows"]
    if len(rows) != _abelian_class_count(max_order):
        return f"atlas has {len(rows)} rows"
    seen = set()
    for row in rows:
        factors = [int(q) for q in row["factors"]]
        primes = [_prime_power_base(q) for q in factors]
        key = (row["order"], tuple(sorted(factors)))
        if None in primes or prod(factors) != row["order"] or key in seen:
            return f"atlas row {row['name']} is not a distinct abelian class"
        seen.add(key)
        cyclic = len(set(primes)) == len(primes)
        if row["ai_span_oracle"] != cyclic or row["ai_subgroup_criterion"] != cyclic:
            return f"atlas verdict on {row['name']} disagrees with cyclicity"
    if data["disagreements"] != 0:
        return "atlas reports disagreements"
    return None


def _unit_subset_keys(num_units: int) -> list:
    subsets = [[u] for u in range(num_units)]
    subsets += [[a, b] for a in range(num_units) for b in range(a + 1, num_units)]
    if list(range(num_units)) not in subsets:
        subsets.append(list(range(num_units)))
    return sorted(",".join(map(str, s)) for s in subsets)


def _check_normcheck(info, data) -> Optional[str]:
    table = np.asarray(groups.make_group(info["group_spec"]).table)
    members = info["members"] or minimal_members(table)
    keys = [",".join(map(str, s)) for s in data["unit_subsets"]]
    if keys != _unit_subset_keys(len(members)):
        return "normcheck unit subsets differ from the reference list"
    if data["trials"] != NORMCHECK_TRIALS or data["seed"] != info["seed"]:
        return "normcheck echoed the wrong trials or seed"
    if not (data["within_tol"] and data["max_residual"] < data["tol"]):
        return f"normcheck residual {data['max_residual']}"
    return None


def reference_norm(groupoid, f) -> float:
    return max(np.linalg.norm(norms.regular_rep_matrix(groupoid, f, u), 2)
               for u in range(len(groupoid.units)))


def attach(ops) -> None:
    """Give every operation a ``check(code, text) -> failure or None``."""
    refs = {}
    for op in ops:
        info = op.info
        command = info["command"]
        if command in ("analyze", "witness", "hls"):
            key = json.dumps([info["group_spec"], info["members"]], sort_keys=True)
            if key not in refs:
                refs[key] = _AnalysisRef(info)
            ref = refs[key]
            judge = {"analyze": _check_analyze,
                     "witness": lambda r, d: r.witness_error(d["witness"]),
                     "hls": _check_hls}[command]
            op.check = _json_check(lambda d, judge=judge, ref=ref: judge(ref, d))
        elif command == "ai-atlas":
            max_order = int(info["argv"][-1])
            op.check = _json_check(lambda d, m=max_order: _check_atlas(m, d))
        elif command == "normcheck":
            op.check = _json_check(lambda d, i=info: _check_normcheck(i, d))
        else:
            groupoid = info["groupoid"]
            expected = reference_norm(groupoid, info["f"])
            dim = max(len(a) for a in groupoid.arrows_by_source)
            op.check = lambda code, text, e=float(expected), d=dim: _norm_error(e, d, text)


def _norm_error(expected: float, dim: int, text: str) -> Optional[str]:
    try:
        got = float(text)
    except ValueError:
        return f"malformed report: {text[:80]!r}"
    if abs(got - expected) <= NORM_RTOL * max(1.0, abs(expected)):
        return None
    reason = f"reduced_norm {got!r}, reference {expected!r} (dimension {dim})"
    if dim > KNOWN_DEFECT_DIM and got < expected:
        return KnownDefect(reason)
    return reason


def _json_check(judge):
    def check(code: int, text: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        try:
            return judge(json.loads(text))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed report: {type(exc).__name__}: {exc}"
    return check
