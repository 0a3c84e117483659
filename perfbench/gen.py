"""Seeded manufactured-solution problems and the reference scheme.

Every generated problem has the exact solution u(x) = e^(a x) on [0, X]
with history phi = exact, kernel K(x, t, v) = c e^(t - x) v^2 and

    g(x, u) = a u - c e^(-2 a tau - x) (e^((2a+1) x) - 1) / (2a + 1),

which is u' minus the inner integral of K(x, t, u(t - tau)) over [0, x].
The kernel depends on x, and with X spanning several delays the delayed
reads hit computed values and cross the breakpoints at k tau.

The program only ever sees the config text, whose coefficients are numeric
literals.  The same literals also drive plain-Python callables, used by
reference_solve: the paper's trapezium scheme with its three-term closure,
written out independently of the package.  Its error is the yardstick the
benchmark holds the program's error against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

A_RANGE = (-0.4, 0.4)
C_RANGE = (0.1, 0.5)
SWEEP_TAUS = (0.25, 0.5, 1.0)
SWEEP_DELAYS = (2, 3, 4)


@dataclass(frozen=True)
class Manufactured:
    """One member of the family: u = e^(a x) on [0, k tau] with delay tau."""

    name: str
    a: float
    c: float
    tau: float
    delays: int

    @property
    def x_end(self) -> float:
        return self.delays * self.tau

    @property
    def _b(self) -> float:
        return 2.0 * self.a * self.tau

    @property
    def _d(self) -> float:
        return 2.0 * self.a + 1.0

    def text(self) -> str:
        """The problem in the package's config format."""
        return (
            f"name = {self.name}\n"
            f"g = {self.a!r}*u - {self.c!r}*exp({-self._b!r} - x)"
            f"*(exp({self._d!r}*x) - 1)/{self._d!r}\n"
            f"K = {self.c!r}*exp(t - x)*v^2\n"
            f"phi = exp({self.a!r}*x)\n"
            f"exact = exp({self.a!r}*x)\n"
            f"tau = {self.tau!r}\n"
            f"x0 = 0.0\n"
            f"X = {self.x_end!r}\n"
        )

    def callables(self):
        """(g, kernel, exact) as plain functions, same operations as the text."""
        a, c, b, d = self.a, self.c, self._b, self._d

        def g(x, u):
            return a * u - c * math.exp(-b - x) * (math.exp(d * x) - 1.0) / d

        def kernel(x, t, v):
            return c * math.exp(t - x) * math.pow(v, 2.0)

        def exact(x):
            return math.exp(a * x)

        return g, kernel, exact


def _draw_ac(rng: random.Random) -> tuple[float, float]:
    return round(rng.uniform(*A_RANGE), 4), round(rng.uniform(*C_RANGE), 4)


def multidelay(seed: int) -> Manufactured:
    """tau = 0.5 over eight delays, a and c drawn from the seed."""
    a, c = _draw_ac(random.Random(seed))
    return Manufactured(f"multidelay_{seed}", a, c, 0.5, 8)


def sweep(seed: int, count: int) -> list[Manufactured]:
    """count problems with a and c drawn.

    (tau, delays) runs through every pairing of SWEEP_TAUS and SWEEP_DELAYS
    equally often, in an order shuffled by the seed.  Cost depends mostly on
    the number of delays, so a fixed mix keeps the cost of a pass the same
    from seed to seed.
    """
    rng = random.Random(seed)
    pairs = [(tau, k) for tau in SWEEP_TAUS for k in SWEEP_DELAYS]
    design = (pairs * (count // len(pairs) + 1))[:count]
    rng.shuffle(design)
    problems = []
    for i, (tau, k) in enumerate(design):
        a, c = _draw_ac(rng)
        problems.append(Manufactured(f"sweep_{seed}_{i}", a, c, tau, k))
    return problems


def reference_solve(g, kernel, phi, x0: float, h: float, n: int, m: int) -> list[float]:
    """u_0 .. u_n of the paper's scheme, literal first step, plain Python.

    Same stencil and summation order as the package's stepper, so on the
    same callables the two agree bit for bit.  u[i] holds u_{i - m}, which is
    also the delayed value read at grid index i.
    """
    u = [float(phi(x0 + j * h)) for j in range(-m, 1)]
    quarter_h2 = h * h / 4.0
    for j in range(n):
        x_j = x0 + j * h
        x_next = x0 + (j + 1) * h
        corner = quarter_h2 * (
            kernel(x_j, x0, u[0])
            + kernel(x_j, x_j, u[j])
            + kernel(x_next, x0, u[0])
            + kernel(x_next, x_next, u[j + 1])
        )
        s1 = 0.0
        for i in range(1, j):
            s1 += kernel(x_j, x0 + i * h, u[i])
        s2 = 0.0
        for i in range(1, j + 1):
            s2 += kernel(x_next, x0 + i * h, u[i])
        u_j = u[j + m]
        m1 = u_j + 0.5 * h * g(x_j, u_j) + corner + 0.5 * h * h * (s1 + s2)
        m2 = m1 + 0.5 * h * g(x_next, m1)
        u.append(m1 + 0.5 * h * g(x_next, m2))
    return u[m:]


def max_abs_err(values, exact, x0: float, h: float) -> float:
    """max over j = 1 .. n of |u_j - exact(x_j)|, values[j] = u_j."""
    return max(abs(exact(x0 + j * h) - values[j]) for j in range(1, len(values)))
