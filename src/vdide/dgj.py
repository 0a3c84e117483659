"""Iterative series solver for scalar fixed-point equations.

Solves u = g0 + N(u), with N arbitrary, by the decomposition u = sum of u_i
where

    u_0     = g0,
    u_1     = N(s_0),
    u_{m+1} = N(s_m) - N(s_{m-1})      for m >= 1,

and s_m = u_0 + ... + u_m is the running partial sum (Daftardar-Gejji and
Jafari, J. Math. Anal. Appl. 316 (2006), with no linear part).  The k-term
approximation is s_{k-1}.  Each new term needs one N evaluation plus the N
value already known from the previous sweep, and the terms telescope: the
k-term sum collapses to g0 + N(s_{k-2}).

The stepper's closure is that telescoped form for k = 3; this module keeps
the series itself as the reference the equivalence tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class SeriesState:
    """Terms u_0 .. u_{k-1} and their partial sums, index-aligned."""

    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]


def dgj_terms(
    g0: float, nonlinear: Callable[[float], float], k: int
) -> SeriesState:
    """Generate the first k series terms of u = g0 + nonlinear(u).

    partial_sums[m] is exactly terms[0] + ... + terms[m] accumulated left to
    right, so the pair stays consistent bit for bit.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    terms = [g0]
    sums = [g0]
    n_prev = 0.0
    for _ in range(k - 1):
        n_next = nonlinear(sums[-1])
        terms.append(n_next - n_prev)
        sums.append(sums[-1] + terms[-1])
        n_prev = n_next
    return SeriesState(terms=tuple(terms), partial_sums=tuple(sums))


def dgj_solve(g0: float, nonlinear: Callable[[float], float], k: int) -> float:
    """The k-term series value, s_{k-1}."""
    return dgj_terms(g0, nonlinear, k).partial_sums[-1]
