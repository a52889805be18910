"""Deterministic complex polynomial root finding.

Roots are found by Aberth-Ehrlich simultaneous iteration, as in MPSolve
(Bini & Fiorentino, Numer. Algorithms 23, 2000). The starting points lie on
the circles of the Newton polygon, the upper convex hull of (k, log|c_k|).
At a point with |x| > 1 the reversed polynomial is evaluated at y = 1/x, so
no power of |x| is formed, and the residual |p(x)| / max(1,|x|)^d is read
off directly. A root stops iterating once its value is below the rounding
bound of its evaluation, but still counts in the others' Aberth sums.
Roots whose float64 residual misses the contract get one Newton step and
a new residual, both from compensated Horner (Graillat & Menissier-Morain,
Inf. Comput. 216, 2012), still in float64 arithmetic. Near-zero leading
coefficients are deflated and reported as a degree deficiency; near-zero
trailing coefficients are deflated exactly and reappear as roots at the
origin. No randomness is used anywhere, so identical inputs give identical
outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexPolynomial",
    "RootResult",
    "RootFindingError",
    "COEFF_DEFLATION_RTOL",
    "evaluate",
    "find_roots",
]

# Coefficients at or below this fraction of the largest magnitude are treated
# as zero during leading/trailing deflation; the leading count is reported as
# RootResult.leading_deficiency.
COEFF_DEFLATION_RTOL = 1e-12

_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class ComplexPolynomial:
    """p(x) = sum_k coefficients[k] x^k, low order first."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        object.__setattr__(self, "coefficients", c)
        if c.ndim != 1 or c.shape[0] < 1:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if not np.any(np.abs(c) > 0):
            raise ValueError("the zero polynomial has no well-defined roots")

    @property
    def nominal_degree(self) -> int:
        return self.coefficients.shape[0] - 1


@dataclass(frozen=True)
class RootResult:
    """Roots with multiplicity plus deflation bookkeeping.

    len(roots) + leading_deficiency equals the nominal degree;
    trailing_zero_roots counts how many of the roots are exact zeros that
    were removed by trailing deflation and appended back.
    residual is max |p(x_k)| / (max|c| * max(1,|x_k|)^degree) over the roots.
    """

    roots: np.ndarray
    leading_deficiency: int
    trailing_zero_roots: int
    residual: float


class RootFindingError(RuntimeError):
    """Raised when the iteration cannot meet the residual contract."""

    def __init__(self, message: str, best_roots: np.ndarray, residual: float):
        super().__init__(f"{message} (best residual {residual:.3e})")
        self.best_roots = best_roots
        self.residual = residual


def evaluate(p: ComplexPolynomial, x) -> complex | np.ndarray:
    """Evaluate p at a point or an array of points by Horner's rule."""
    acc = np.polyval(p.coefficients[::-1], np.asarray(x, dtype=complex))
    return complex(acc) if np.ndim(x) == 0 else acc


_EPS = np.finfo(float).eps
# Veltkamp's constant 2^27 + 1: splits a float64 into two 26-bit halves
_SPLITTER = 134217729.0


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


def _both_orders(coeffs: np.ndarray) -> np.ndarray:
    """Column 0 holds p's coefficients, column 1 those of the reversed
    polynomial q(y) = y^n p(1/y) = p(x) / x^n, both highest order first."""
    return np.stack([coeffs[::-1], coeffs], axis=1)


def _inside(x: np.ndarray):
    """big = |x| > 1, and the point z that is evaluated: 1/x where big, else
    x, so that |z| <= 1 and no power of |x| is ever formed."""
    big = np.abs(x) > 1.0
    return big, np.where(big, 1.0 / np.where(big, x, 1.0), x)


def _horner(orders: np.ndarray, big: np.ndarray, z: np.ndarray):
    """Value, derivative and sum_k |c_k| |z|^k at each z, in p's coefficient
    order or the reversed one as big selects, in one loop over all points."""
    columns = big.astype(np.intp)
    table, moduli = orders[:, columns], np.abs(orders)[:, columns]
    v, d, s, az = table[0].copy(), np.zeros_like(z), moduli[0], np.abs(z)
    for row, mod in zip(table[1:], moduli[1:]):
        d *= z
        d += v
        v *= z
        v += row
        s = s * az + mod
    return v, d, s


def _newton_denominator(n: int, big, z, v, d):
    """p' in the units of v: with y = 1/x, p/p' = v / (n y v - y^2 d)."""
    return np.where(big, n * z * v - z * z * d, d)


def _aberth(coeffs: np.ndarray, max_iterations: int) -> np.ndarray:
    """All roots of a dense polynomial with nonzero ends, simultaneously.

    A root stops iterating once its value is below the rounding bound of
    its evaluation; it still counts in the Aberth sums of the others.
    """
    n = coeffs.shape[0] - 1
    if n == 1:
        return np.array([-coeffs[0] / coeffs[1]])
    orders = _both_orders(coeffs)
    x = _newton_polygon_starts(coeffs)
    live = np.arange(n)
    # Horner's rounding error is below about 2n eps sum_k |c_k| |z|^k
    noise = 4.0 * n * _EPS
    with np.errstate(all="ignore"):
        for _ in range(max_iterations):
            xl = x[live]
            big, z = _inside(xl)
            v, d, s = _horner(orders, big, z)
            # sum over j != i of 1/(x_i - x_j) = conj(dx) / |dx|^2, in reals
            dr, di = xl.real[:, None] - x.real, xl.imag[:, None] - x.imag
            sq = dr * dr + di * di
            sq[np.arange(live.size), live] = np.inf
            sums = (dr / sq).sum(axis=1) - 1j * (di / sq).sum(axis=1)
            # the Aberth step N / (1 - N sums), N = v / den, with one division;
            # a value that rounds to zero gives a step of exactly zero
            den = _newton_denominator(n, big, z, v, d) - v * sums
            x[live] = xl - np.divide(v, den, out=np.zeros_like(v), where=v != 0)
            # a non-finite iterate never recovers
            if not np.all(np.isfinite(x[live])):
                break
            live = live[np.abs(v) > noise * s]
            if live.size == 0:
                break
    return x


def _split(a):
    """a = hi + lo with each half of 26 significant bits (Veltkamp)."""
    hi = _SPLITTER * a
    hi = hi - (hi - a)
    return hi, a - hi


def _two_sum(a, b):
    """a + b = s + e exactly (componentwise, so complex arrays work too)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


# a complex product as four real ones, columns (ar, ai, ar, ai) times
# (br, bi, bi, br): the real part is column 0 - 1, the imaginary 2 + 3
_SIGNS = np.array([-1.0, 1.0])


def _complex_product(a: np.ndarray, b_parts):
    """a * b = p + e for a complex array a and b given as _parts(b): p is the
    rounded product and e its error, exact to first order in eps (the
    TwoProductCplx of Graillat & Menissier-Morain)."""
    b4, b_hi, b_lo = b_parts
    a2 = a.view(np.float64).reshape(-1, 2)
    a4 = np.concatenate([a2, a2], axis=1)
    p4 = a4 * b4
    a_hi, a_lo = _split(a4)
    e4 = a_lo * b_lo - (((p4 - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    p, f = _two_sum(p4[:, ::2], p4[:, 1::2] * _SIGNS)
    e = e4[:, ::2] + e4[:, 1::2] * _SIGNS + f
    return p.view(np.complex128).ravel(), e.view(np.complex128).ravel()


def _parts(b: np.ndarray):
    """The fixed factor of _complex_product, spread and split once."""
    b2 = b.view(np.float64).reshape(-1, 2)
    b4 = np.concatenate([b2, b2[:, ::-1]], axis=1)
    return (b4, *_split(b4))


def _compensated_horner(orders: np.ndarray, big: np.ndarray, z: np.ndarray):
    """Horner's value with its rounding errors summed back in: as accurate as
    twice the working precision, in float64 arithmetic only."""
    table = orders[:, big.astype(np.intp)]
    z_parts = _parts(z)
    v, err = table[0].copy(), np.zeros_like(z)
    for row in table[1:]:
        p, e = _complex_product(v, z_parts)
        v, f = _two_sum(p, row)
        err = err * z + (e + f)
    return v + err


def _accurate_values(orders: np.ndarray, x: np.ndarray):
    """big, z, the derivative and the compensated value at each x.

    The value is taken at the exact 1/x: the rounding of z = fl(1/x) is
    carried as y_lo = 1/x - z, and q(z + y_lo) = q(z) + q'(z) y_lo.
    """
    big, z = _inside(x)
    _, d, _ = _horner(orders, big, z)
    p, e = _complex_product(x, _parts(z))
    y_lo = np.where(big, ((1.0 - p) - e) * z, 0.0)
    return big, z, d, _compensated_horner(orders, big, z) + d * y_lo


def _residuals(coeffs_full: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """|p(x)| / (max|c| * max(1,|x|)^d) per root, by the reversed split."""
    value = _horner(_both_orders(coeffs_full), *_inside(roots))[0]
    return np.abs(value) / np.max(np.abs(coeffs_full))


def _compensated_step(coeffs_full: np.ndarray, x: np.ndarray):
    """One Newton step and the new residuals, both with compensated values;
    a root keeps its old place where the step does not lower its residual."""
    n = coeffs_full.shape[0] - 1
    orders = _both_orders(coeffs_full)
    with np.errstate(all="ignore"):
        big, z, d, v = _accurate_values(orders, x)
        stepped = x - v / _newton_denominator(n, big, z, v, d)
        before, after = np.abs(v), np.abs(_accurate_values(orders, stepped)[3])
    better = after < before
    scale = np.max(np.abs(coeffs_full))
    return np.where(better, stepped, x), np.where(better, after, before) / scale


def find_roots(
    p: ComplexPolynomial,
    tol: float = 1e-12,
    max_iterations: int = _MAX_ITERATIONS,
) -> RootResult:
    """All complex roots of p, with multiplicity, plus deflation counts.

    The returned roots satisfy |p(x_k)| <= tol * max|c| * max(1,|x_k|)^d
    with d the nominal degree; if the iteration cannot reach that bound a
    RootFindingError carrying the best iterate is raised. Multiple roots
    are returned as clusters of nearby simple roots, never merged.
    """
    return _find_roots(p, np.abs(p.coefficients), tol, max_iterations)


def _find_roots(
    p: ComplexPolynomial,
    magnitudes: np.ndarray,
    tol: float,
    max_iterations: int = _MAX_ITERATIONS,
) -> RootResult:
    """find_roots with deflation judged on the given magnitudes, one per
    coefficient, instead of on |c_k| itself."""
    c = p.coefficients
    live = np.flatnonzero(magnitudes > COEFF_DEFLATION_RTOL * np.max(magnitudes))
    lo, hi = int(live[0]), int(live[-1])
    if hi > lo:
        raw = _aberth(c[lo : hi + 1], max_iterations)
    else:
        raw = np.array([], dtype=complex)
    roots = np.concatenate([raw, np.zeros(lo, dtype=complex)])
    residuals = _residuals(c, roots)
    # the compensated step only where float64 misses; never on the zero roots
    miss = np.flatnonzero(~(residuals[: raw.size] <= tol))
    if miss.size:
        roots[miss], residuals[miss] = _compensated_step(c, roots[miss])
    residual = float(np.max(residuals, initial=0.0))
    # written so that a NaN residual (non-finite roots) fails too
    if not residual <= tol:
        raise RootFindingError(
            f"root iteration failed to meet tolerance {tol:.1e}", roots, residual
        )
    return RootResult(
        roots=roots,
        leading_deficiency=p.nominal_degree - hi,
        trailing_zero_roots=lo,
        residual=residual,
    )
