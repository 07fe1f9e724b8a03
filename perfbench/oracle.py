"""Independent arbitrary-precision oracle for the benchmark's output checks.

Nothing here imports wpfeq. The lattice convention is the program's:
Lambda = Z*omega1 + Z*omega2 with the generators spanning the lattice, so
the DLMF half-periods are omega1/2 and omega2/2.

- g2 and g3 come from the Eisenstein q-series in tau = omega2/omega1:
  g2 = 60 * (pi^4/45) E4(tau) / omega1^4, g3 = 140 * (2 pi^6/945) E6(tau) / omega1^6.
- pe, pe', zeta and sigma come from the Jacobi theta function theta1
  (DLMF 23.6.8, 23.6.9): sigma(z) = (2w/pi) exp(eta1 z^2/(2w)) theta1(v)/theta1'(0)
  with w = omega1/2, v = pi z/(2w), eta1 = -pi^2 theta1'''(0)/(12 w theta1'(0));
  zeta is its logarithmic derivative and pe = -zeta'.
- Pass or fail verdicts of shift tests come from exact Fraction sums of
  lattice fractions.

Run this file to self-test the oracle on properties that hold exactly.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import mpmath

DPS = 30


def _divisor_power_sum(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


class Lattice:
    """Oracle view of the lattice Z*omega1 + Z*omega2 at DPS digits."""

    def __init__(self, omega1: complex, omega2: complex):
        with mpmath.workdps(DPS + 10):
            b1, b2 = mpmath.mpc(omega1), mpmath.mpc(omega2)
            # Lagrange-Gauss reduction puts tau in the fundamental domain, where
            # |q| <= exp(-pi sqrt(3)/2) and every series below converges fast
            while True:
                if abs(b1) > abs(b2):
                    b1, b2 = b2, b1
                m = mpmath.nint(mpmath.re(b2 / b1))
                if m == 0:
                    break
                b2 -= m * b1
            if mpmath.im(b2 / b1) < 0:
                b2 = -b2
            self.b1, self.b2 = b1, b2
            self.tau = b2 / b1
            self.q = mpmath.exp(1j * mpmath.pi * self.tau)
            self.w = b1 / 2
            self.t1 = mpmath.jtheta(1, 0, self.q, 1)
            t3 = mpmath.jtheta(1, 0, self.q, 3)
            self.eta1 = -(mpmath.pi**2) * t3 / (12 * self.w * self.t1)
            self.g2, self.g3 = self._invariants()

    def _invariants(self):
        r = mpmath.exp(2j * mpmath.pi * self.tau)
        e4 = e6 = mpmath.mpc(1)
        rn = mpmath.mpc(1)
        cut = mpmath.mpf(10) ** (-(DPS + 8))
        n = 0
        while True:
            n += 1
            rn *= r
            t4 = 240 * _divisor_power_sum(n, 3) * rn
            t6 = -504 * _divisor_power_sum(n, 5) * rn
            e4 += t4
            e6 += t6
            if abs(t4) < cut and abs(t6) < cut:
                break
        g2 = 60 * (mpmath.pi**4 / 45) * e4 / self.b1**4
        g3 = 140 * (2 * mpmath.pi**6 / 945) * e6 / self.b1**6
        return g2, g3

    def _theta_ratios(self, z):
        v = mpmath.pi * z / (2 * self.w)
        th = [mpmath.jtheta(1, v, self.q, d) for d in range(4)]
        return v, th

    def sigma(self, z):
        with mpmath.workdps(DPS + 10):
            z = mpmath.mpc(z)
            v, th = self._theta_ratios(z)
            return (2 * self.w / mpmath.pi) * mpmath.exp(self.eta1 * z * z / (2 * self.w)) * th[0] / self.t1

    def zeta(self, z):
        with mpmath.workdps(DPS + 10):
            z = mpmath.mpc(z)
            v, th = self._theta_ratios(z)
            return self.eta1 * z / self.w + (mpmath.pi / (2 * self.w)) * th[1] / th[0]

    def wp_dp(self, z):
        """(pe(z), pe'(z)) from the logarithmic derivatives of theta1."""
        with mpmath.workdps(DPS + 10):
            z = mpmath.mpc(z)
            v, (t0, t1, t2, t3) = self._theta_ratios(z)
            k = mpmath.pi / (2 * self.w)
            L1 = t1 / t0
            dL = t2 / t0 - L1**2
            d2L = t3 / t0 - 3 * L1 * t2 / t0 + 2 * L1**3
            return -self.eta1 / self.w - k**2 * dL, -(k**3) * d2L

    def scale(self):
        """Weight-one scale s with g2 ~ s^4 and g3 ~ s^6."""
        return max(abs(self.g2) ** 0.25, abs(self.g3) ** (1.0 / 6.0))


def rel_close(value: complex, reference, scale: float, tol: float) -> bool:
    """|value - reference| <= tol * max(|reference|, scale)."""
    ref = complex(reference)
    return abs(complex(value) - ref) <= tol * max(abs(ref), scale)


def invariants_close(lat: Lattice, g2: complex, g3: complex, tol: float) -> bool:
    """Weight-aware agreement: errors measured against s^4 and s^6."""
    s = float(lat.scale())
    return abs(complex(g2) - complex(lat.g2)) <= tol * s**4 and abs(
        complex(g3) - complex(lat.g3)
    ) <= tol * s**6


def det3_residual(lat: Lattice, points, shift: complex) -> float:
    """Normalised determinant residual of pe(. + shift) at a triple, from oracle jets.

    Same definition as the program's residual: |det| over the product of the
    row maxima of |pe| and |pe'|, each clamped below by one.
    """
    jets = [lat.wp_dp(complex(p) + shift) for p in points]
    (f, fp), (g, gp), (h, hp) = jets
    det = (g - f) * hp - (gp - fp) * h + (f * gp - g * fp)
    row1 = max(1.0, *(abs(complex(j[0])) for j in jets))
    row2 = max(1.0, *(abs(complex(j[1])) for j in jets))
    return float(abs(det)) / (row1 * row2)


def on_lattice(fracs) -> bool:
    """True when the sum of lattice fractions (s, t) has integer coordinates."""
    s = sum((Fraction(a) for a, _ in fracs), Fraction(0))
    t = sum((Fraction(b) for _, b in fracs), Fraction(0))
    return s.denominator == 1 and t.denominator == 1


def self_test() -> list[str]:
    """Exact properties the oracle must reproduce; returns the failures."""
    problems = []
    tight = mpmath.mpf(10) ** (-(DPS - 5))
    square = Lattice(2.0, 2.0j)
    with mpmath.workdps(DPS + 10):
        # exactly hexagonal at working precision, not a rounded double
        hexagonal = Lattice(2, 2 * mpmath.expjpi(mpmath.mpf(1) / 3))
    generic = Lattice(2.0, 0.7 + 2.1j)
    if abs(square.g3) > tight * square.scale() ** 6:
        problems.append(f"g3 of the square lattice is {square.g3}, not 0")
    if abs(hexagonal.g2) > tight * hexagonal.scale() ** 4:
        problems.append(f"g2 of the hexagonal lattice is {hexagonal.g2}, not 0")
    for name, lat in (("square", square), ("hexagonal", hexagonal), ("generic", generic)):
        with mpmath.workdps(DPS + 10):
            for z in (0.31 + 0.17j, 0.9 - 0.4j, -0.55 + 0.8j):
                p, dp = lat.wp_dp(z)
                lhs = dp * dp
                rhs = 4 * p**3 - lat.g2 * p - lat.g3
                if abs(lhs - rhs) > tight * max(abs(lhs), 1):
                    problems.append(f"{name}: pe'^2 != 4pe^3 - g2 pe - g3 at {z}")
            # Legendre: eta1*w3 - eta3*w1 = pi*i/2 with eta3 = zeta(w3)
            w3 = lat.b2 / 2
            legendre = lat.eta1 * w3 - lat.zeta(w3) * lat.w - 1j * mpmath.pi / 2
            if abs(legendre) > tight:
                problems.append(f"{name}: Legendre relation off by {mpmath.nstr(abs(legendre), 3)}")
    return problems


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print("FAIL", line)
    print("oracle self-test:", "FAIL" if failures else "PASS")
    sys.exit(1 if failures else 0)
