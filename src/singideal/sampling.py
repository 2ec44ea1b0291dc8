"""Seeded random rational inputs for property tests and batch sweeps.

All randomness flows through ``random.Random`` (the Mersenne Twister
MT19937), so a seed pins the sampled values on every platform.  Reports
built from them by exact arithmetic repeat byte for byte; ``normcheck``'s
float residuals also follow the OpenBLAS kernel of the machine.
Numerators are uniform in [-9, 9] and denominators in {1, 2, 3, 4}:
small enough to keep exact arithmetic fast and float conditioning good.
Each value n / d is drawn as the integer n (12 / d) over one common
denominator, ``DENOMINATOR`` = 12 = lcm(1, 2, 3, 4), with the same calls
in the same order (numerator first), so that a batch of values is one
integer array.  The Fraction views divide by 12 and are the same values
for every seed; and as float64 division is correctly rounded, n (12 / d)
/ 12 and n / d are the same float.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .groupoid import FiniteGroupoid, GroupoidFunction

NUMERATOR_RANGE = (-9, 9)
DENOMINATORS = (1, 2, 3, 4)
DENOMINATOR = 12


def random_numerators(rng: random.Random, rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) int64 array of values drawn row by row, each times
    DENOMINATOR."""
    values = [rng.randint(*NUMERATOR_RANGE) * (DENOMINATOR // rng.choice(DENOMINATORS))
              for _ in range(rows * cols)]
    return np.array(values, dtype=np.int64).reshape(rows, cols)


def random_coeffs(rng: random.Random, n: int) -> tuple:
    return tuple(Fraction(v, DENOMINATOR) for v in random_numerators(rng, 1, n)[0].tolist())


def random_groupoid_function(rng: random.Random, groupoid: FiniteGroupoid) -> GroupoidFunction:
    return GroupoidFunction(groupoid, random_coeffs(rng, groupoid.num_arrows()))
