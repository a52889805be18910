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

import math
from dataclasses import dataclass

import numpy as np

from .states import _count, _vector

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
    """p(x) = sum_k coefficients[k] x^k, low order first, read as state vectors are."""

    coefficients: np.ndarray

    def __post_init__(self):
        fits, expected = lambda m: m > 0, "at least one coefficient"
        c = _vector(self.coefficients, fits, expected, "coefficient vector")
        object.__setattr__(self, "coefficients", c)

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
    """p at a point or an array of points by _blocked on p itself, within _horner's bound."""
    _, table, moduli = _tables(p.coefficients)
    z = np.asarray(x, dtype=complex).reshape(-1)
    (acc,), _ = _blocked(table[:1, :1], moduli[:1], z, z.size)
    return complex(acc[0]) if np.ndim(x) == 0 else acc.reshape(np.shape(x))


_EPS = np.finfo(float).eps
# rows of the Aberth pairwise step formed at once: a cache tile, (64, n) float64 arrays
_ROWS = 64


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


def _tables(coeffs: np.ndarray):
    """Degree n, [p, q] x [value r_k, derivative k r_k] x L = ceil((n + 1)/m) blocks of
    m = isqrt(n) + 1, highest first and zero-padded on top, and |value blocks|: built once."""
    n = coeffs.shape[0] - 1
    m = math.isqrt(n) + 1
    blocks = -(-(n + 1) // m)
    rows = np.zeros((2, 2, blocks * m), dtype=complex)
    rows[0, 0, : n + 1], rows[1, 0, : n + 1] = coeffs, coeffs[::-1]
    rows[:, 1, :n] = rows[:, 0, 1 : n + 1] * np.arange(1, n + 1)
    table = rows.reshape(2, 2, blocks, m)[:, :, ::-1]
    return n, table, np.abs(table[:, 0])


def _blocked(table: np.ndarray, moduli: np.ndarray, z: np.ndarray, cut: int):
    """sum_k r_k z^k for each order r in the table, and sum_k |r_k||z|^k, by its
    first side at z[:cut] and any second at z[cut:]: r = sum_b B_b w^b, w = z^m
    (Paterson & Stockmeyer 1973), each B_b an einsum row against z^0..z^(m-1)."""
    blocks, m = moduli.shape[1:]
    powers, radii = (np.vander(v, m + 1, increasing=True) for v in (z, np.abs(z)))
    parts, sums = np.empty((blocks, table.shape[1], z.size), complex), np.empty((blocks, z.size))
    for rows, sizes, at in zip(table, moduli, (slice(cut), slice(cut, None))):
        np.einsum("kbi,pi->bkp", rows, powers[at, :m], out=parts[:, :, at])
        np.einsum("bi,pi->bp", sizes, radii[at, :m], out=sums[:, at])
    acc, s = parts[0], sums[0]
    for part, total in zip(parts[1:], sums[1:]):
        acc, s = acc * powers[:, m] + part, s * radii[:, m] + total
    return acc, s


def _horner(tables, x: np.ndarray):
    """Value, Newton denominator (if the tables hold derivatives) and sum_k |c_k| |z|^k at x.

    Where |x| > 1 the reversed polynomial q(z) = z^n p(1/z) = p(x) / x^n is
    evaluated at z = 1/x, elsewhere p itself at z = x, so that |z| <= 1 and
    no power of |x| is ever formed. The denominator is p' in the units of the
    value: p/p' = v / d at z = x, and v / (n z v - z^2 d) at z = 1/x, d being
    q'(z). To first order (u = eps/2, mu = sqrt(2) gamma_2 per complex product;
    Higham 2002, sec. 3.6) _blocked's r_k z^k, k = bm + i, passes i + bm = k
    products, as in Horner's rule (w carries m - 1), but m + L - 2 <= n
    additions (m + (n + 1)/m <= n + 2), so |v - r(z)| <= (n mu + (m + L - 2) u)
    sum_k |r_k||z|^k < 2n eps sum_k |r_k||z|^k, as find_roots allows; r', from
    k r_k, has one rounding more.
    """
    n, table, moduli = tables
    big = np.abs(x) > 1.0
    order, cut = np.argsort(big, kind="stable"), x.size - np.count_nonzero(big)
    z = np.concatenate([x[order[:cut]], 1.0 / x[order[cut:]]])  # p's points, then q's
    acc, s = _blocked(table, moduli, z, cut)
    for den in acc[1:]:  # none for tables of value rows only
        den[cut:] = n * z[cut:] * acc[0, cut:] - z[cut:] * z[cut:] * den[cut:]
    back = np.argsort(order)
    return (*acc[:, back], s[back])


def _aberth(coeffs: np.ndarray, tables, max_iterations: int) -> np.ndarray:
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
            v, den, s = _horner(tables, xl)
            # sum over j != i of 1/(x_i - x_j) = conj(dx) / |dx|^2, in reals, for
            # _ROWS live roots at a time, so that no (live, n) array is formed
            sums = np.empty(live.size, dtype=complex)
            for at in range(0, live.size, _ROWS):
                block = slice(at, at + _ROWS)
                dr, di = xl.real[block, None] - x.real, xl.imag[block, None] - x.imag
                sq = dr * dr + di * di
                sq[np.arange(dr.shape[0]), live[block]] = np.inf
                dr /= sq
                di /= sq
                sums[block] = dr.sum(axis=1) - 1j * di.sum(axis=1)
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
    merged. A NaN or negative tol, or a negative max_iterations, is refused with
    ValueError, and a max_iterations that is not an integer with TypeError.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0 (not NaN), got {tol!r}")
    if _count(max_iterations, "max_iterations") < 0:
        raise ValueError(f"max_iterations must not be negative, got {max_iterations}")
    sizes = p._deflation_sizes()
    live = np.flatnonzero(sizes > COEFF_DEFLATION_RTOL * np.max(sizes))
    lo, hi = int(live[0]), int(live[-1])
    n, kept = hi - lo, p.coefficients[lo : hi + 1]
    _, table, moduli = tables = _tables(kept)
    raw = _aberth(kept, tables, max_iterations)
    roots = np.concatenate([raw, np.zeros(lo, dtype=complex)])
    # one float64 pass of _horner's value rows, where the factor |x|^n of both sums cancels,
    # plus 2n eps, which bounds its rounding; the zero roots are exact roots of the deflated one
    with np.errstate(all="ignore"):
        value, s = _horner((n, table[:, :1], moduli), raw)
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
