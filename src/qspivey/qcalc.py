"""q-integer primitives.

[s] = 1 + q + ... + q**(s-1) is the q-analogue of the integer s, with [0]
the zero polynomial.  The falling product [s][s-1]...[s-k+1] plays the
role of the classical falling factorial; it vanishes identically whenever
k > s because a factor [0] appears.  Everything is built by products, so
no division is ever performed.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .polys import QPoly


@lru_cache(maxsize=None)
def q_int(s: int) -> QPoly:
    """The q-integer [s]; requires s >= 0."""
    if s < 0:
        raise ValueError("q_int requires s >= 0")
    return QPoly((1,) * s)


def q_falling(s: int, k: int) -> QPoly:
    """The q-falling product [s][s-1]...[s-k+1].

    The empty product (k = 0) is 1; the result is the zero polynomial
    whenever k > s.
    """
    if s < 0 or k < 0:
        raise ValueError("q_falling requires s >= 0 and k >= 0")
    if k > s:
        return QPoly.zero()
    out = QPoly.one()
    for i in range(s, s - k, -1):
        out = out.window(i)
    return out


def q_factorial(s: int) -> QPoly:
    """[s]! = [s][s-1]...[1], with [0]! = 1."""
    return q_falling(s, s)


def falling_classic(t: int, k: int) -> int:
    """Classical falling factorial t(t-1)...(t-k+1) for integer t, k >= 0."""
    if k < 0:
        raise ValueError("falling_classic requires k >= 0")
    out = 1
    for i in range(k):
        out *= t - i
    return out


def binom(n: int, k: int) -> int:
    """Binomial coefficient for nonnegative arguments; 0 when k > n."""
    return math.comb(n, k)
