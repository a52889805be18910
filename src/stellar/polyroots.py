"""Deterministic complex polynomial root finding.

Roots are found by Aberth-Ehrlich simultaneous iteration, as in MPSolve
(Bini & Fiorentino, Numer. Algorithms 23, 2000). The starting points lie on
the circles of the Newton polygon, the upper convex hull of (k, log|c_k|).
At a point with |x| > 1 the reversed polynomial is evaluated at y = 1/x, so
no power of |x| is formed, and the residual |p(x)| / max(1,|x|)^d is read
off directly. A root stops iterating once its value is below the rounding
bound of its evaluation, but still counts in the others' Aberth sums.
One float64 Horner pass then gives every root its residual and derivative.
A root whose residual misses the contract gets one Newton step, from its
value in stdlib decimal at 40 significant digits and that derivative, and a
new residual in decimal: the same on every platform whatever its long
double. Near-zero leading coefficients are deflated and reported as a
degree deficiency; near-zero trailing coefficients are deflated exactly and
reappear as roots at the origin. No randomness is used anywhere, so
identical inputs give identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

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
    """Raised when the iteration cannot meet the residual contract. residual
    is the largest residual as the search stops: decimal for the roots
    re-evaluated up to the first that still misses, float64 for the rest."""

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
    if n <= 1:  # no root, or the root of c_0 + c_1 x
        return -coeffs[:n] / coeffs[n:]
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


def _decimal_value(pairs: list, x) -> complex:
    """p(x), or q(1/x) = p(x) / x^n where |x| > 1, by Horner's rule in decimal
    at 40 significant digits from the exact x and the exact coefficients in
    pairs, (re, im) Decimals low order first; only the result is rounded.
    |x| > 1 is judged by np.abs, as in _inside, not by abs()."""
    big = np.abs(x) > 1.0
    zr, zi = Decimal(x.real), Decimal(x.imag)
    order = pairs if big else pairs[::-1]
    # no traps: a non-finite point gives NaN, not an exception
    with localcontext(Context(prec=40, traps=[])):
        if big:
            m = zr * zr + zi * zi
            zr, zi = zr / m, -zi / m
        vr, vi = order[0]
        for cr, ci in order[1:]:
            vr, vi = vr * zr - vi * zi + cr, vr * zi + vi * zr + ci
        return complex(float(vr), float(vi))


def _certify(c: np.ndarray, roots: np.ndarray, m: int, tol: float) -> np.ndarray:
    """|p(x)| / (max|c| * max(1,|x|)^d) per root, by the reversed split, with
    value and derivative from one float64 Horner pass. Each of the first m
    roots whose residual misses tol gets one Newton step from its decimal
    value and that derivative, and a new residual from decimal values; it
    keeps its place in roots where the step does not lower its residual.
    Stops at the first root that still misses tol, since that root fails
    the call whatever the others give."""
    n = c.shape[0] - 1
    scale = np.max(np.abs(c))
    big, z = _inside(roots)
    with np.errstate(all="ignore"):
        value, d, _ = _horner(_both_orders(c), big, z)
        res = np.abs(value) / scale
        miss = np.flatnonzero(~(res[:m] <= tol)).tolist()
        pairs = [(Decimal(a.real), Decimal(a.imag)) for a in c.tolist()] if miss else []
        for i in miss:
            k = slice(i, i + 1)
            # a 1-element array, so that the step rounds as numpy's array loops do
            v = np.array([_decimal_value(pairs, roots[i])])
            stepped = (roots[k] - v / _newton_denominator(n, big[k], z[k], v, d[k]))[0]
            before, after = np.abs(v[0]), np.abs(_decimal_value(pairs, stepped))
            if after < before:
                roots[i], before = stepped, after
            res[i] = before / scale
            if not res[i] <= tol:
                break
    return res


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
    raw = _aberth(c[lo : hi + 1], max_iterations)
    roots = np.concatenate([raw, np.zeros(lo, dtype=complex)])
    # the decimal step never reaches the zero roots
    residual = float(np.max(_certify(c, roots, raw.size, tol), initial=0.0))
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
