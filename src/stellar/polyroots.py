"""Deterministic complex polynomial root finding.

Roots are found by Aberth-Ehrlich simultaneous iteration started from a
deterministically perturbed circle at the Cauchy root bound, followed by a
Newton polish of each root. Near-zero leading coefficients are deflated and
reported as a degree deficiency; near-zero trailing coefficients are
deflated exactly and reappear as roots at the origin. No randomness is
used anywhere, so identical inputs give identical outputs.
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


def _horner_pair(coeffs: np.ndarray, xs: np.ndarray):
    """Values and first derivatives of the coefficient array at xs."""
    val = np.zeros_like(xs)
    der = np.zeros_like(xs)
    for c in coeffs[::-1]:
        der = der * xs + val
        val = val * xs + c
    return val, der


def _initial_guesses(coeffs: np.ndarray) -> np.ndarray:
    n = coeffs.shape[0] - 1
    radius = 1.0 + np.max(np.abs(coeffs[:-1])) / np.abs(coeffs[-1])
    # fixed angular offset breaks conjugation symmetry deterministically
    angles = 2.0 * np.pi * (np.arange(n) + 0.25) / n + 0.4
    return radius * np.exp(1j * angles)


def _aberth(coeffs: np.ndarray, tol: float, max_iterations: int) -> np.ndarray:
    """All roots of a dense polynomial with nonzero ends, simultaneously."""
    n = coeffs.shape[0] - 1
    if n == 1:
        return np.array([-coeffs[0] / coeffs[1]])
    x = _initial_guesses(coeffs)
    for _ in range(max_iterations):
        val, der = _horner_pair(coeffs, x)
        if np.all(np.abs(val) == 0.0):
            break
        # Newton ratio; a vanishing derivative gets a deterministic nudge
        bad = der == 0
        if np.any(bad):
            x = np.where(bad, x * (1 + 1e-6) + 1e-6, x)
            val, der = _horner_pair(coeffs, x)
        ratio = val / der
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        corr = ratio / (1.0 - ratio * inv.sum(axis=1))
        # collided points or overflow: fall back to a plain Newton step
        corr = np.where(np.isfinite(corr), corr, ratio)
        x = x - corr
        # a non-finite iterate never recovers: Horner at inf gives NaN
        if not np.all(np.isfinite(x)):
            break
        if np.all(np.abs(corr) <= tol * np.maximum(1.0, np.abs(x))):
            break
    return x


def _polish(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """A few Newton steps per root, kept only while the residual improves."""
    x = roots.copy()
    for _ in range(3):
        val, der = _horner_pair(coeffs, x)
        step = np.where(der != 0, val / der, 0.0)
        cand = x - step
        cval = np.polyval(coeffs[::-1], cand)
        better = np.abs(cval) < np.abs(val)
        x = np.where(better, cand, x)
    return x


def _residual(coeffs_full: np.ndarray, roots: np.ndarray) -> float:
    if roots.size == 0:
        return 0.0
    degree = coeffs_full.shape[0] - 1
    val = np.polyval(coeffs_full[::-1], roots)
    scale = np.max(np.abs(coeffs_full)) * np.maximum(1.0, np.abs(roots)) ** degree
    return float(np.max(np.abs(val) / scale))


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
    c = p.coefficients
    thresh = COEFF_DEFLATION_RTOL * np.max(np.abs(c))
    live = np.nonzero(np.abs(c) > thresh)[0]
    lo, hi = int(live[0]), int(live[-1])
    leading_deficiency = p.nominal_degree - hi
    core = c[lo : hi + 1]

    if core.shape[0] > 1:
        raw = _aberth(core, tol, max_iterations)
        raw = _polish(core, raw)
    else:
        raw = np.array([], dtype=complex)
    roots = np.concatenate([raw, np.zeros(lo, dtype=complex)])

    residual = _residual(c, roots)
    # written so that a NaN residual (non-finite roots) fails too
    if not residual <= tol:
        raise RootFindingError(
            f"root iteration failed to meet tolerance {tol:.1e}", roots, residual
        )
    return RootResult(
        roots=roots,
        leading_deficiency=leading_deficiency,
        trailing_zero_roots=lo,
        residual=residual,
    )
