"""fixed6 against the expression it replaced: round() to six places, then
six decimals, with + 0.0 turning a negative zero positive."""

import math
import random
import struct

import pytest

from trackcast.numfmt import fixed6


def by_round(value: float) -> str:
    return f"{round(value, 6) + 0.0:.6f}"


EDGES = [0.0, -0.0, 4e-7, -4e-7, 5e-7, -5e-7, 2.0**-7, -(2.0**-7), 2.0**33 + 0.5, 2.0**53,
         1e308, -1e308, 5e-324, -5e-324, math.inf, -math.inf, math.nan, -math.nan]


@pytest.mark.parametrize("value", EDGES, ids=[f"{i}:{v!r}" for i, v in enumerate(EDGES)])
def test_edge_values(value):
    assert fixed6(value) == by_round(value)


def test_seeded_sweep():
    # Random bit patterns (every exponent, NaNs and infinities among them),
    # uniforms, values halfway between two 7th decimals and dyadic fractions.
    rng = random.Random(6)
    for _ in range(10_000):
        bits = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        near_half = (rng.randint(-10**9, 10**9) + 0.5) / 10**7
        dyadic = rng.randint(-2**40, 2**40) / 2**rng.randint(1, 30)
        for value in (bits, rng.uniform(-1e3, 1e3), near_half, dyadic):
            assert fixed6(value) == by_round(value), repr(value)


def test_never_negative_zero():
    assert fixed6(-0.0) == fixed6(-4e-7) == fixed6(-5e-7) == "0.000000"
    assert fixed6(-6e-7) == "-0.000001"
