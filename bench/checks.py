"""Independent oracles and per-op checks, run outside the timed phase.

Nothing here calls stellar. Each check returns None for a correct output or
the failure kind:

    exception      the op raised
    exit_code      a CLI call exited nonzero
    bad_json       CLI output is not strict JSON (NaN and Infinity rejected)
    nonfinite      an output value is NaN or infinite
    residual       the recomputed residual contract is violated
    oracle         the output disagrees with the independent reference

Root references are numpy.roots (LAPACK eigenvalues of the companion matrix),
Newton-polished in extended precision, and used only when they pass their own
residual check. They are cached under the benchmark's directory, keyed by a
hash of the coefficients.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from workloads import cartesian, cvec, product_amplitudes, so3

EPS = np.finfo(float).eps
# The root finder promises |p(x)| <= 1e-12 * max|c| * max(1,|x|)^d on the
# roots it returns; recomputed in extended precision that leaves room for the
# float64 evaluation of the promise itself.
ROOTS_CONTRACT_TOL = 1e-11
# The same contract recomputed from printed angles: tan(theta/2) e^{i phi}
# carries a few ulps of angle rounding, which the residual amplifies by up to
# the degree.
POINTS_RESIDUAL_TOL = 1e-9
# Largest chordal distance between matched points of output and reference.
AGREE_TOL = 1e-6
# A reference must meet this residual to be used at all.
REFERENCE_TOL = 1e-12
# Relative error allowed on rotated states (float64 rotations of at most 4096
# amplitudes reach ~1e-14).
STATE_TOL = 1e-10
# Factorization of a rotated product state, and rigid point rotations.
SEP_TOL = 1e-9
POINT_TOL = 1e-10
# Rounding allowance, in units of degree * eps, for the inverse direction.
INVERSE_ULPS = 16


def strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=reject)


def _horner(coeffs_high_first, x):
    acc = np.zeros_like(x)
    for c in coeffs_high_first:
        acc = acc * x + c
    return acc


def roots_residual(coeffs, roots) -> float:
    """max |p(x)| / (max|c| * max(1,|x|)^d), evaluated in extended precision.

    For |x| > 1 the reversed polynomial is evaluated at 1/x, which gives the
    same ratio without overflow.
    """
    roots = np.asarray(roots)
    if roots.size == 0:
        return 0.0
    c = np.asarray(coeffs, dtype=np.clongdouble)
    c = c / np.max(np.abs(c))
    x = roots.astype(np.clongdouble)
    big = np.abs(x) > 1
    y = np.where(big, 1 / np.where(big, x, 1), x)
    vals = np.where(big, _horner(c, y), _horner(c[::-1], y))
    return float(np.max(np.abs(vals)))


def majorana_weights(degree: int) -> np.ndarray:
    """sqrt(binom(d, m)) through log-gamma, finite up to d = 2000."""
    m = np.arange(degree + 1)
    lg = math.lgamma(degree + 1) - np.array([math.lgamma(k + 1) + math.lgamma(degree - k + 1) for k in m])
    return np.exp(0.5 * lg)


def unit_vectors(theta, phi) -> np.ndarray:
    return cartesian({"theta": theta, "phi": phi})


def max_matched_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Largest chordal distance under the minimum-total matching of u to v."""
    cost = np.linalg.norm(u[:, None, :] - v[None, :, :], axis=-1)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if len(rows) else 0.0


def _roots_to_vectors(roots) -> np.ndarray:
    return unit_vectors(2.0 * np.arctan(np.abs(roots)), np.mod(np.angle(roots), 2 * np.pi))


def _polish(coeffs, roots) -> np.ndarray:
    """Newton steps in extended precision; a root that would move by more than
    1e-6 (relative) keeps its starting value, so clusters cannot merge."""
    c = np.asarray(coeffs, dtype=np.clongdouble)[::-1]
    x = np.asarray(roots, dtype=np.clongdouble)
    with np.errstate(all="ignore"):
        for _ in range(3):
            val = np.zeros_like(x)
            der = np.zeros_like(x)
            for ck in c:
                der = der * x + val
                val = val * x + ck
            step = np.where(der != 0, val / np.where(der != 0, der, 1), 0)
            x = np.where(np.isfinite(step), x - step, x)
    moved = np.abs(x - roots) <= 1e-6 * np.maximum(1.0, np.abs(roots))
    return np.where(moved, x.astype(complex), roots)


def spin_rotation(two_s: int, angles) -> np.ndarray:
    """exp(-i a Jz) exp(-i b Jy) exp(-i g Jz), rows and columns in descending M."""
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)
    jplus = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1)
    jy = (jplus - jplus.T) / 2j
    alpha, beta, gamma = angles
    return (np.exp(-1j * alpha * m)[:, None] * scipy.linalg.expm(-1j * beta * jy)
            * np.exp(-1j * gamma * m)[None, :])


def qubit_rotation(amps: np.ndarray, n: int, triples) -> np.ndarray:
    """Apply one spin-1/2 rotation per qubit; qubit j sits on tensor axis n-1-j."""
    t = amps.reshape([2] * n)
    for j, ang in enumerate(triples):
        t = np.moveaxis(np.tensordot(spin_rotation(1, ang), t, axes=([1], [n - 1 - j])), 0, n - 1 - j)
    return t.reshape(-1)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _ray_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """a equals b up to one complex scale, to relative tolerance tol."""
    scale = np.vdot(b, a) / np.vdot(b, b)
    return bool(np.linalg.norm(a - scale * b) <= tol * np.linalg.norm(a))


def _state_kind(out: np.ndarray, ref: np.ndarray, ray: bool = False):
    if not np.all(np.isfinite(out)):
        return "nonfinite"
    if out.shape != ref.shape:
        return "oracle"
    ok = _ray_close(out, ref, STATE_TOL) if ray else _rel(out, ref) <= STATE_TOL
    return None if ok else "oracle"


def closed_form_state(points: dict) -> np.ndarray:
    """Spin state of points at one direction, or at the two poles, up to scale.

    All 2S points at (t, p): a_m = sqrt(binom(2S, m)) alpha^m beta^(2S-m) with
    (alpha, beta) = (cos t/2, -sin t/2 e^{ip}), built in log space. k points
    at the north pole and the rest at the south pole: the basis state m = k.
    """
    theta, phi = np.asarray(points["theta"]), np.asarray(points["phi"])
    d = len(theta)
    if np.all(theta == theta[0]) and np.all(phi == phi[0]):
        alpha, beta = math.cos(theta[0] / 2), -math.sin(theta[0] / 2) * np.exp(1j * phi[0])
        m = np.arange(d + 1)
        log_mag = np.log(majorana_weights(d)) + m * math.log(abs(alpha)) + (d - m) * math.log(abs(beta))
        phase = m * np.angle(alpha) + (d - m) * np.angle(beta)
        return np.exp(log_mag - log_mag.max() + 1j * phase)
    out = np.zeros(d + 1, dtype=complex)
    out[int(np.count_nonzero(theta == 0.0))] = 1.0
    return out


def product_pattern(factors) -> np.ndarray:
    """Closed-form points of a product state's amplitude polynomial, as unit vectors.

    prod_j (a_j + b_j x^(2^j)): qubit j gives the 2^j roots of x^(2^j) = -a_j/b_j.
    """
    theta, phi = [], []
    for j, (a, b) in enumerate(factors):
        k = 2**j
        ratio = -a / b
        theta += [2 * math.atan(abs(ratio) ** (1.0 / k))] * k
        phi += [(np.angle(ratio) + 2 * math.pi * i) / k for i in range(k)]
    return unit_vectors(theta, phi)


def svg_kind(svg: str, points: int):
    try:
        root = ET.fromstring(svg)
    except ET.ParseError:
        return "oracle"
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    if len(circles) != points + 1:
        return "oracle"
    try:
        xy = np.array([[float(e.get("cx")), float(e.get("cy"))] for e in circles])
    except (TypeError, ValueError):
        return "oracle"
    return None if np.all(np.isfinite(xy)) else "nonfinite"


class Checker:
    """Per-op checks with a reference-root cache on disk."""

    def __init__(self, cache_dir: Path):
        self.cache_dir = cache_dir
        cache_dir.mkdir(parents=True, exist_ok=True)

    def reference(self, coeffs: np.ndarray):
        """Reference roots of a polynomial, or None when no reference is trustworthy."""
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        path = self.cache_dir / (hashlib.sha1(coeffs.tobytes()).hexdigest() + ".npy")
        if path.exists():
            r = np.load(path)
            return r if r.size else None
        r = _polish(coeffs, np.roots(coeffs[::-1]))
        good = len(r) == len(coeffs) - 1 and roots_residual(coeffs, r) <= REFERENCE_TOL
        np.save(path, r if good else np.zeros(0, dtype=complex))
        return r if good else None

    # -- roots ---------------------------------------------------------------

    def points_kind(self, coeffs: np.ndarray, theta, phi, reference=None):
        """Check printed points against the polynomial whose roots they claim to be."""
        theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
        if theta.shape != (len(coeffs) - 1,) or phi.shape != theta.shape:
            return "oracle"
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
            return "nonfinite"
        if np.any(theta < 0) or np.any(theta > np.pi) or np.any(phi < 0) or np.any(phi >= 2 * np.pi):
            return "oracle"
        finite = theta < np.pi
        roots = np.tan(theta[finite] / 2) * np.exp(1j * phi[finite])
        deficiency = int(np.count_nonzero(~finite))
        if deficiency and np.max(np.abs(coeffs[len(coeffs) - deficiency:])) > 1e-12 * np.max(np.abs(coeffs)):
            return "residual"
        if roots_residual(coeffs[: len(coeffs) - deficiency], roots) > POINTS_RESIDUAL_TOL:
            return "residual"
        if reference is None:
            ref = self.reference(coeffs)
            if ref is None:
                return None
            reference = _roots_to_vectors(ref)
        if max_matched_distance(unit_vectors(theta, phi), reference) > AGREE_TOL:
            return "oracle"
        return None

    # -- per op kind ---------------------------------------------------------

    def check(self, op: dict, out: dict):
        if "error" in out:
            return "exception"
        kind = op["kind"]
        if kind == "cli":
            return self._cli(op, out)
        if kind in ("majorana", "alt"):
            c = cvec(op["state"])
            if kind == "majorana":
                c = majorana_weights(len(c) - 1) * c
            return self.points_kind(c, out["theta"], out["phi"])
        if kind == "spin_rot":
            amps = cvec(op["state"])
            return _state_kind(cvec(out), spin_rotation(len(amps) - 1, op["angles"]) @ amps)
        if kind == "qubit_sep":
            return self._qubit_sep(op, cvec(out["state"]), out["verdict"])
        if kind == "alt_product":
            factors = [cvec(f) for f in op["factors"]]
            pattern = product_pattern(factors)
            closed = out["closed"]
            if max_matched_distance(unit_vectors(closed["theta"], closed["phi"]), pattern) > SEP_TOL:
                return "oracle"
            alt = out["alt"]
            return self.points_kind(product_amplitudes(factors), alt["theta"], alt["phi"], pattern)
        if kind == "match":
            return self._match(op, out)
        if kind == "inverse":
            if op["family"] == "random":
                return inverse_kind(op["points"], cvec(out))
            return _state_kind(cvec(out), closed_form_state(op["points"]), ray=True)
        if kind == "emit":
            return self._emit(op["points"], out["json"]) or svg_kind(out["svg"], op["n"])
        raise ValueError(f"unknown op kind {kind!r}")

    def _qubit_sep(self, op, state, verdict):
        ref = qubit_rotation(cvec(op["state"]), op["n"], op["angles"])
        bad = _state_kind(state, ref)
        if bad:
            return bad
        return _verdict_kind(verdict, op["product"], ref)

    def _match(self, op, out):
        moved = unit_vectors(out["moved"]["theta"], out["moved"]["phi"])
        if not np.all(np.isfinite(moved)) or not math.isfinite(out["max_distance"]):
            return "nonfinite"
        ref = cartesian(op["points"]) @ so3(op["angles"]).T
        if np.max(np.linalg.norm(moved - ref, axis=1)) > POINT_TOL:
            return "oracle"
        target = cartesian(op["target"])
        dots = np.clip(ref @ target.T, -1.0, 1.0)
        cross = np.linalg.norm(np.cross(ref[:, None, :], target[None, :, :]), axis=-1)
        dist = np.arctan2(cross, dots)
        rows, cols = linear_sum_assignment(dist)
        return None if abs(dist[rows, cols].max() - out["max_distance"]) <= SEP_TOL else "oracle"

    @staticmethod
    def _emit(points, text):
        try:
            doc = strict_json(text)
        except ValueError:
            return "bad_json"
        got = [(p["theta"], p["phi"]) for p in doc["points"]]
        want = list(zip(points["theta"], points["phi"]))
        return None if doc["expected_size"] == len(want) and got == want else "oracle"

    def _cli(self, op, out):
        if out["rc"] != 0:
            return "exit_code"
        if op["sub"] == "render":
            return svg_kind(out["out"], op["n"])
        try:
            doc = strict_json(out["out"])
        except ValueError:
            return "bad_json"
        sub, n = op["sub"], op["n"]
        if sub.startswith("points"):
            c = cvec(op["state"])
            if sub == "points-majorana":
                c = majorana_weights(len(c) - 1) * c
            if doc.get("expected_size") != len(c) - 1:
                return "oracle"
            pts = doc["points"]
            return self.points_kind(c, [p["theta"] for p in pts], [p["phi"] for p in pts])
        if sub == "check-sep":
            return _verdict_kind(doc, op["product"], cvec(op["state"]))
        if doc.get("n_qubits") != n:
            return "oracle"
        got = np.array([complex(re, im) for re, im in doc["amplitudes"]])
        amps = cvec(op["state"])
        if sub == "rotate-spin":
            return _state_kind(got, spin_rotation(len(amps) - 1, op["angles"]) @ amps)
        return _state_kind(got, qubit_rotation(amps, n, op["angles"]))


def _verdict_kind(verdict: dict, product: bool, state: np.ndarray):
    if verdict["separable"] != product:
        return "oracle"
    if not product:
        return None
    factors = [(complex(f[0], f[1]), complex(f[2], f[3])) for f in verdict["factors"]]
    if not all(math.isfinite(abs(a)) and math.isfinite(abs(b)) for a, b in factors):
        return "nonfinite"
    return None if _ray_close(product_amplitudes(factors), state, SEP_TOL) else "oracle"


_TEST_ANGLES = (0.3, 1.9, 3.5, 5.1)


def inverse_kind(points: dict, amps: np.ndarray):
    """Check a state built from points by evaluating its Majorana polynomial.

    The polynomial must equal lam * prod_j (alpha_j x + beta_j), with
    (alpha_j, beta_j) = (cos t/2, -sin t/2 e^{i p}) the spinor of point j. At
    four points z of the unit circle the ratio P(z) / prod(alpha z + beta)
    must be one constant lam, and at every root x_k = tan(t/2) e^{i p} the
    value |P(x_k)| must stay within rounding of |lam| * prod(|alpha| |x| +
    |beta|). Products are summed as logarithms, so nothing overflows.
    """
    if amps.size == 0 or not np.all(np.isfinite(amps)) or not np.any(amps):
        return "nonfinite"
    theta, phi = np.asarray(points["theta"]), np.asarray(points["phi"])
    d = len(theta)
    if amps.size != d + 1:
        return "oracle"
    c = majorana_weights(d) * amps
    if not np.all(np.isfinite(c)):
        return "nonfinite"
    c = (c / np.max(np.abs(c))).astype(np.clongdouble)
    alpha, beta = np.cos(theta / 2), -np.sin(theta / 2) * np.exp(1j * phi)
    allow = INVERSE_ULPS * d * EPS

    # scale lam, from the best-conditioned test point
    best = None
    logs = []
    for t in _TEST_ANGLES:
        z = np.exp(1j * t)
        val = complex(_horner(c[::-1], np.array([z], dtype=np.clongdouble))[0])
        log_true = np.sum(np.log(alpha * z + beta))
        cond = np.sum(np.log(np.abs(alpha) + np.abs(beta))) - log_true.real
        if val == 0:
            return "oracle"
        logs.append((np.log(val) - log_true, cond))
        if best is None or cond < best[1]:
            best = logs[-1]
    log_lam, cond0 = best
    for log_ratio, cond in logs:
        if allow * math.exp(min(cond, 700.0)) > 0.1:
            continue  # this test point cannot resolve the scale
        diff = abs(np.exp(log_ratio - log_lam) - 1.0)
        if diff > 2 * allow * (math.exp(min(cond, 700.0)) + math.exp(min(cond0, 700.0))):
            return "oracle"

    # residual at the roots, relative to |lam| * prod(|alpha| |x| + |beta|)
    ok = alpha != 0
    x = (np.tan(theta[ok] / 2) * np.exp(1j * phi[ok])).astype(np.clongdouble)
    big = np.abs(x) > 1
    y = np.where(big, 1 / np.where(big, x, 1), x)
    vals = np.where(big, _horner(c, y), _horner(c[::-1], y))
    r = np.abs(x).astype(float)
    # log prod(|alpha_j| r + |beta_j|), divided by r^d where the reversed form was used
    log_bound = np.log(np.abs(alpha)[None, :] * r[:, None] + np.abs(beta)[None, :]).sum(axis=1)
    log_bound -= np.where(r > 1, d * np.log(np.maximum(r, 1.0)), 0.0)
    with np.errstate(divide="ignore"):
        log_vals = np.log(np.abs(vals).astype(float))
    if np.any(log_vals - log_lam.real - log_bound > math.log(2 * allow)):
        return "residual"
    return None
