"""Deterministic complex polynomial root finding.

Roots are found by Aberth-Ehrlich simultaneous iteration, as in MPSolve
(Bini & Fiorentino, Numer. Algorithms 23, 2000). The starting points lie on
the circles of the Newton polygon, the upper convex hull of (k, log|c_k|).
At a point with |x| > 1 the reversed polynomial is evaluated at y = 1/x, so
no power of |x| is formed. A root stops iterating once its value is below
the rounding bound of its evaluation, but still counts in the others' Aberth
sums. One float64 Horner pass then certifies every root by its relative
backward error |p(x)| / sum_k |c_k| |x|^k (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, sec. 5.1) plus 2n eps for that pass's rounding:
x is an exact root of a polynomial whose every coefficient is within that
relative distance of c_k. Where c_k = w_k a_k with fixed weights, as in both
state encodings, the weights cancel and the distance is one in the amplitudes
a_k, up to the rounding of w_k a_k. Near-zero leading coefficients are
deflated and reported as a degree deficiency; near-zero trailing
coefficients are deflated exactly and reappear as roots at the origin;
either way the deflated coefficients count as set to zero. Which ends are
near zero is judged on the sizes the polynomial gives: |c_k|, or |a_k| for
the Majorana polynomial. No randomness is used anywhere, so identical inputs
give identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexPolynomial",
    "RootResult",
    "RootFindingError",
    "COEFF_DEFLATION_RTOL",
    "DEFAULT_ROOT_TOL",
    "evaluate",
    "find_roots",
]

# Coefficients whose size is at or below this fraction of the largest size are
# treated as zero during leading/trailing deflation; the size is |c_k|, or the
# amplitude |a_k| for the Majorana polynomial. The leading count is reported
# as RootResult.leading_deficiency.
COEFF_DEFLATION_RTOL = 1e-12

# Default bound on the roots' relative backward error.
DEFAULT_ROOT_TOL = 1e-12

_MAX_ITERATIONS = 200


@dataclass(frozen=True, eq=False)
class ComplexPolynomial:
    """p(x) = sum_k coefficients[k] x^k, low order first."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=complex, ndmin=1)
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)
        if c.ndim != 1 or c.shape[0] < 1:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if not np.any(np.abs(c) > 0):
            raise ValueError("the zero polynomial has no well-defined roots")

    def __reduce__(self):  # copies and unpickled ones are rebuilt, so checked and read-only
        return ComplexPolynomial, (self.coefficients,)

    @property
    def nominal_degree(self) -> int:
        return self.coefficients.shape[0] - 1

    def _deflation_sizes(self) -> np.ndarray:
        """The sizes near-zero ends are judged on: |c_k|."""
        return np.abs(self.coefficients)


@dataclass(frozen=True, eq=False)
class RootResult:
    """Roots with multiplicity plus deflation bookkeeping.

    len(roots) + leading_deficiency equals the nominal degree;
    trailing_zero_roots counts how many of the roots are exact zeros that
    were removed by trailing deflation and appended back.
    residual is the largest relative backward error over the roots,
    |p(x_k)| / sum_j |c_j| |x_k|^j + 2n eps, taken against the coefficients
    left after deflation (those deflated count as zero), with n their degree.
    """

    roots: np.ndarray
    leading_deficiency: int
    trailing_zero_roots: int
    residual: float


class RootFindingError(RuntimeError):
    """Raised when the iteration cannot meet the residual contract. residual
    is the largest relative backward error of best_roots, as in
    RootResult.residual, so it is never below 2n eps."""

    def __init__(self, message: str, best_roots: np.ndarray, residual: float):
        super().__init__(f"{message} (best residual {residual:.3e})")
        self.best_roots = best_roots
        self.residual = residual


def evaluate(p: ComplexPolynomial, x) -> complex | np.ndarray:
    """Evaluate p at a point or an array of points by Horner's rule."""
    acc = np.polyval(p.coefficients[::-1], np.asarray(x, dtype=complex))
    return complex(acc) if np.ndim(x) == 0 else acc


_EPS = np.finfo(float).eps


def _newton_polygon_starts(coeffs: np.ndarray) -> np.ndarray:
    """Starting points on the circles of the Newton polygon.

    An edge (i, j) of the upper convex hull of (k, log|c_k|) gives j - i
    points on the circle of radius (|c_i| / |c_j|)^(1/(j - i)); a fixed
    angular offset breaks conjugation symmetry deterministically.
    """
    n = coeffs.shape[0] - 1
    mags = np.abs(coeffs)
    nonzero = np.flatnonzero(mags).tolist()
    logs = np.log(mags[nonzero]).tolist()
    hull: list[tuple[int, float]] = []
    for k, lk in zip(nonzero, logs):
        while len(hull) > 1:
            (i, li), (j, lj) = hull[-2], hull[-1]
            if (lj - li) * (k - i) > (lk - li) * (j - i):
                break
            hull.pop()
        hull.append((k, lk))
    starts = []
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        angles = 2.0 * np.pi * (np.arange(j - i) / (j - i) + i / n) + 0.7
        starts.append(np.exp((li - lj) / (j - i) + 1j * angles))
    return np.concatenate(starts)


def _horner(coeffs: np.ndarray, x: np.ndarray):
    """Value, Newton denominator and sum_k |c_k| |z|^k at each point x.

    Where |x| > 1 the reversed polynomial q(z) = z^n p(1/z) = p(x) / x^n is
    evaluated at z = 1/x, elsewhere p itself at z = x, so that |z| <= 1 and
    no power of |x| is ever formed; both orders run in one loop over all
    points. The denominator is p' in the units of the value: p/p' = v / d
    at z = x, and v / (n z v - z^2 d) at z = 1/x, d being q'(z).
    """
    n = coeffs.shape[0] - 1
    big = np.abs(x) > 1.0
    z = np.where(big, 1.0 / np.where(big, x, 1.0), x)
    # column 0 holds p's coefficients, column 1 q's, both highest order first
    orders = np.array([coeffs[::-1], coeffs]).T
    columns = big.astype(np.intp)
    table, moduli = orders[1:, columns], np.abs(orders)[:, columns]
    v, d, s, az = orders[0, columns], np.zeros_like(z), moduli[0], np.abs(z)
    for row, mod in zip(table, moduli[1:]):
        d *= z
        d += v
        v *= z
        v += row
        s = s * az + mod
    return v, np.where(big, n * z * v - z * z * d, d), s


def _aberth(coeffs: np.ndarray, max_iterations: int) -> np.ndarray:
    """All roots of a dense polynomial with nonzero ends, simultaneously.

    A root stops iterating once its value is below the rounding bound of
    its evaluation; it still counts in the Aberth sums of the others.
    """
    n = coeffs.shape[0] - 1
    if n <= 1:  # no root, or the root of c_0 + c_1 x
        return -coeffs[:n] / coeffs[n:]
    x = _newton_polygon_starts(coeffs)
    live = np.arange(n)
    # Horner's rounding error is below about 2n eps sum_k |c_k| |z|^k
    noise = 4.0 * n * _EPS
    with np.errstate(all="ignore"):
        for _ in range(max_iterations):
            xl = x[live]
            v, den, s = _horner(coeffs, xl)
            # sum over j != i of 1/(x_i - x_j) = conj(dx) / |dx|^2, in reals
            dr, di = xl.real[:, None] - x.real, xl.imag[:, None] - x.imag
            sq = dr * dr + di * di
            sq[np.arange(live.size), live] = np.inf
            sums = (dr / sq).sum(axis=1) - 1j * (di / sq).sum(axis=1)
            # the Aberth step N / (1 - N sums), N = v / den, with one division;
            # a value that rounds to zero gives a step of exactly zero
            den -= v * sums
            x[live] = xl - np.divide(v, den, out=np.zeros_like(v), where=v != 0)
            # a non-finite iterate never recovers
            if not np.all(np.isfinite(x[live])):
                break
            live = live[np.abs(v) > noise * s]
            if live.size == 0:
                break
    return x


def find_roots(
    p: ComplexPolynomial,
    tol: float = DEFAULT_ROOT_TOL,
    max_iterations: int = _MAX_ITERATIONS,
) -> RootResult:
    """All complex roots of p, with multiplicity, plus deflation counts.

    Near-zero end coefficients are judged on |c_k|, or for the Majorana
    polynomial on the amplitudes |a_k|, and set to zero. Each returned root
    x is then an exact root of a polynomial whose every coefficient is
    within relative distance tol of c_k: |p(x)| / sum_k |c_k| |x|^k plus the
    rounding term 2n eps is at most tol, n being the degree left after
    deflation, so a tol below 2n eps cannot be met. If the iteration cannot
    reach tol a RootFindingError carrying the best iterate is raised; its
    message names the floor 2n eps when tol is below it.
    Multiple roots are returned as clusters of nearby simple roots, never
    merged.
    """
    sizes = p._deflation_sizes()
    live = np.flatnonzero(sizes > COEFF_DEFLATION_RTOL * np.max(sizes))
    lo, hi = int(live[0]), int(live[-1])
    n, kept = hi - lo, p.coefficients[lo : hi + 1]
    raw = _aberth(kept, max_iterations)
    roots = np.concatenate([raw, np.zeros(lo, dtype=complex)])
    # one float64 Horner pass by the reversed split, where the factor |x|^n of
    # both sums cancels, plus 2n eps, which bounds that pass's rounding; the
    # zero roots are exact roots of the deflated polynomial
    with np.errstate(all="ignore"):
        value, _, s = _horner(kept, raw)
        residual = float(np.max(np.abs(value) / s + 2.0 * n * _EPS, initial=0.0))
    # written so that a NaN residual (non-finite roots) fails too
    if not residual <= tol:
        floor, message = 2 * n * _EPS, f"root iteration failed to meet tolerance {tol:.1e}"
        if tol < floor:
            message += f", below the rounding floor 2n eps = {floor:.3e} at degree n = {n}"
        raise RootFindingError(message, roots, residual)
    return RootResult(
        roots=roots,
        leading_deficiency=p.nominal_degree - hi,
        trailing_zero_roots=lo,
        residual=residual,
    )
