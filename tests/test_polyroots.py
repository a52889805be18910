import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stellar.polyroots
from stellar import (
    COEFF_DEFLATION_RTOL,
    ComplexPolynomial,
    RootFindingError,
    SpinState,
    evaluate,
    find_roots,
    majorana_constellation,
    majorana_polynomial,
    points_from_roots,
    spin_from_qubits,
)

import helpers

RT3 = helpers.RT3


def expand_from_roots(roots, leading=1.0 + 0.0j):
    """Re-expand leading * prod (x - r), low order first."""
    coeffs = np.array([leading])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
    return coeffs


def test_polynomial_validation():
    with pytest.raises(ValueError):
        ComplexPolynomial(np.array([]))
    with pytest.raises(ValueError):
        ComplexPolynomial([0.0, 0.0])
    assert ComplexPolynomial([1.0, 0.0, 2.0]).nominal_degree == 2


def test_evaluate_at_known_root():
    p = ComplexPolynomial([RT3, RT3, RT3, RT3])
    assert abs(evaluate(p, -1.0)) < 1e-14


def test_evaluate_at_zero_is_constant_term():
    p = ComplexPolynomial([2.5 - 1j, 4.0, 7.0])
    assert evaluate(p, 0.0) == 2.5 - 1j


def test_evaluate_matches_power_sum():
    rng = np.random.default_rng(21)
    coeffs = helpers.random_amplitudes(rng, 9)
    p = ComplexPolynomial(coeffs)
    for x in helpers.random_amplitudes(rng, 5):
        naive = sum(c * x**k for k, c in enumerate(coeffs))
        np.testing.assert_allclose(evaluate(p, x), naive, rtol=1e-13)


def test_evaluate_vectorized_matches_scalar():
    p = ComplexPolynomial([1.0, -2.0, 0.5j])
    xs = np.array([0.0, 1.0, -1.0 + 2j])
    np.testing.assert_allclose(evaluate(p, xs), [evaluate(p, x) for x in xs])


# Gaussian coefficients at degrees 1..1023, and c_k = 2^-k at degree 1000, whose
# sum_k |c_k| |x|^k fits in float64 at |x| = 2.5 although |x|^1000 does not
EVALUATE_CASES = [(n, "gaussian") for n in (1, 2, 3, 7, 15, 31, 63, 127, 255, 511, 1023)]
EVALUATE_CASES += [(1000, "decaying")]


@pytest.mark.parametrize("n, kind", EVALUATE_CASES)
def test_evaluate_within_the_horner_bound_on_both_sides_of_the_unit_circle(n, kind):
    eps = np.finfo(float).eps
    if kind == "decaying":
        c = 0.5 ** np.arange(n + 1) + 0j
    else:
        c = helpers.random_amplitudes(np.random.default_rng(n), n + 1)
    below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    turns = np.exp(1j * (2 * np.pi * np.arange(16) / 16 + 0.1))
    radii = np.outer([0.3, 0.9, below, above, 1.1, 2.5], turns).ravel()
    x = np.concatenate([radii, np.outer([below, above, 2.5], [1, -1, 1j, -1j]).ravel()])
    ce, xe = c.astype(np.clongdouble), x.astype(np.clongdouble)
    exact = helpers.extended_horner(ce, xe)
    sums = helpers.extended_horner(np.abs(ce), np.abs(xe))
    fits = sums <= np.finfo(float).max
    with np.errstate(over="ignore", invalid="ignore"):  # where the sum itself overflows
        value = evaluate(ComplexPolynomial(c), x)
    assert np.all(np.isfinite(value[fits]))
    assert np.all(np.abs(value - exact)[fits] <= 2 * n * eps * sums[fits])
    # the decaying sums fit at x = 2.5 and 2.5j, where x^1000 overflows
    assert kind == "gaussian" or fits[np.isin(x, [2.5, 2.5j])].all()


def test_cube_roots_of_unity_pattern():
    # equal coefficients factor as (1+x)(1+x^2)
    result = find_roots(ComplexPolynomial([RT3, RT3, RT3, RT3]))
    assert result.leading_deficiency == 0
    assert helpers.max_complex_mismatch(result.roots, [-1.0, 1j, -1j]) <= 1e-9


def test_pure_power_gives_origin_roots():
    result = find_roots(ComplexPolynomial([0.0, 0.0, 1.0]))
    np.testing.assert_array_equal(result.roots, [0.0, 0.0])
    assert result.trailing_zero_roots == 2
    assert result.leading_deficiency == 0


def test_vanishing_top_coefficients_reported_as_deficiency():
    result = find_roots(ComplexPolynomial([1.0, 1.0, 0.0, 0.0]))
    assert result.leading_deficiency == 2
    assert helpers.max_complex_mismatch(result.roots, [-1.0]) <= 1e-12


def test_deflation_threshold_is_relative():
    # top coefficient far below the largest one counts as absent
    result = find_roots(ComplexPolynomial([1e6, 1e6, 1e-8]))
    assert result.leading_deficiency == 1


# an end amplitude is exactly zero, well below the deflation threshold
# relative to O(1) interior amplitudes, or well above it
END_AMPLITUDE = st.one_of(st.just(0.0), st.floats(1e-22, 1e-13), st.floats(1e-11, 1e-6))


@st.composite
def spin_with_small_ends(draw):
    """Gaussian interior amplitudes, with up to four drawn ones at each end."""
    two_s = draw(st.integers(2, 31))
    low = draw(st.lists(END_AMPLITUDE, max_size=min(4, two_s // 2)))
    high = draw(st.lists(END_AMPLITUDE, max_size=min(4, two_s - len(low))))
    interior = helpers.random_amplitudes(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), two_s + 1 - len(low) - len(high)
    )
    return SpinState(two_s, np.concatenate([low, interior, high]))


def end_run(sizes):
    """How many sizes from the start are at or below the deflation threshold;
    the largest never is, so the run ends at the first size above it."""
    return int(np.argmin(sizes <= COEFF_DEFLATION_RTOL * np.max(sizes)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(spin_with_small_ends())
def test_majorana_ends_are_judged_on_the_amplitudes(spin):
    sizes = np.abs(spin.amplitudes)
    result = find_roots(majorana_polynomial(spin))
    assert result.trailing_zero_roots == end_run(sizes)
    assert result.leading_deficiency == end_run(sizes[::-1])
    points = points_from_roots(result.roots, result.leading_deficiency, spin.two_S)
    assert points == majorana_constellation(spin)


def test_recovers_known_random_roots():
    rng = np.random.default_rng(22)
    true_roots = helpers.random_amplitudes(rng, 8)
    p = ComplexPolynomial(expand_from_roots(true_roots, leading=0.7 - 0.2j))
    result = find_roots(p, tol=1e-10)
    assert helpers.max_complex_mismatch(result.roots, true_roots) <= 1e-8


def test_double_root_returned_twice():
    # (x - 1)^2: the cluster is reported as two entries, never merged
    result = find_roots(ComplexPolynomial([1.0, -2.0, 1.0]))
    assert result.roots.shape == (2,)
    np.testing.assert_allclose(result.roots, [1.0, 1.0], atol=1e-6)


def test_residual_contract_holds():
    rng = np.random.default_rng(23)
    for degree in (1, 2, 5, 12, 25):
        coeffs = helpers.random_amplitudes(rng, degree + 1)
        p = ComplexPolynomial(coeffs)
        tol = 1e-12
        result = find_roots(p, tol=tol)
        bound = tol * np.max(np.abs(coeffs)) * np.maximum(
            1.0, np.abs(result.roots)
        ) ** degree
        values = np.abs(evaluate(p, result.roots))
        assert np.all(values <= bound)
        assert result.residual <= tol
        assert len(result.roots) + result.leading_deficiency == p.nominal_degree


def test_residual_bounds_the_backward_error():
    # |p(x)| / sum_k |c_k| |x|^k recomputed in extended precision stays at or
    # below the reported residual, which carries the rounding term 2n eps
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    for degree in (1, 2, 5, 12, 25):
        coeffs = helpers.random_amplitudes(rng, degree + 1)
        result = find_roots(ComplexPolynomial(coeffs))
        assert result.residual >= 2 * degree * eps
        assert result.residual >= helpers.extended_backward_error(coeffs, result.roots)


def test_reconstruction_from_returned_roots():
    rng = np.random.default_rng(24)
    coeffs = helpers.random_amplitudes(rng, 11)
    result = find_roots(ComplexPolynomial(coeffs))
    rebuilt = expand_from_roots(result.roots, leading=coeffs[-1])
    np.testing.assert_allclose(
        rebuilt, coeffs, atol=1e-8 * np.max(np.abs(coeffs))
    )


def test_conjugated_coefficients_conjugate_the_roots():
    rng = np.random.default_rng(25)
    coeffs = helpers.random_amplitudes(rng, 7)
    roots = find_roots(ComplexPolynomial(coeffs)).roots
    conj_roots = find_roots(ComplexPolynomial(np.conj(coeffs))).roots
    assert helpers.max_complex_mismatch(conj_roots, np.conj(roots)) <= 1e-8


def test_deterministic_output():
    rng = np.random.default_rng(26)
    coeffs = helpers.random_amplitudes(rng, 14)
    a = find_roots(ComplexPolynomial(coeffs))
    b = find_roots(ComplexPolynomial(coeffs.copy()))
    np.testing.assert_array_equal(a.roots, b.roots)
    assert a.residual == b.residual


def test_degree_one_closed_form():
    result = find_roots(ComplexPolynomial([3.0, -1.5j]))
    np.testing.assert_allclose(result.roots, [3.0 / 1.5j], rtol=1e-15)


def test_nonconvergence_reports_best_iterate():
    rng = np.random.default_rng(27)
    coeffs = helpers.random_amplitudes(rng, 21)
    with pytest.raises(RootFindingError) as info:
        find_roots(ComplexPolynomial(coeffs), tol=1e-12, max_iterations=1)
    err = info.value
    assert "best residual" in str(err)
    assert "floor" not in str(err)  # tol is above the rounding floor 2n eps
    assert err.residual > 1e-12
    assert err.best_roots.shape == (20,)


def test_nan_tolerance_is_a_bad_argument_not_a_convergence_failure():
    # a negative tol too: it is no tolerance at all, unlike 0, which lies below the floor
    for tol in (math.nan, -1.0, -1e-300):
        with pytest.raises(ValueError, match="NaN"):
            find_roots(ComplexPolynomial([1.0, 2.0, 3.0]), tol=tol)


@pytest.mark.parametrize(
    "count, error", [(True, TypeError), (3.0, TypeError), ("5", TypeError), (-1, ValueError)]
)
def test_bad_max_iterations_is_a_bad_argument_not_a_convergence_failure(count, error):
    p = ComplexPolynomial([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(error, match="max_iterations"):
        find_roots(p, max_iterations=count)
    assert find_roots(p, max_iterations=np.int64(200)).roots.shape == (3,)


def test_six_qubit_majorana_writes_nothing_to_stderr(capfd):
    # the degree-63 Majorana polynomial of this seeded state once overflowed
    # the iteration and leaked numpy RuntimeWarnings; now it converges quietly
    state = helpers.random_state(np.random.default_rng(66), 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = majorana_constellation(spin_from_qubits(state))
    assert points.expected_size == 63
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_polynomial_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        ComplexPolynomial([1.0, bad, 2.0])


def test_starts_lie_on_the_newton_polygon_circles():
    # hull vertices (0, 0), (1, log 1e3), (3, log 1e-3): one start on the
    # circle of radius 1e-3 and two on the circle of radius 1e3
    starts = stellar.polyroots._newton_polygon_starts(np.array([1.0, 1e3, 1.0, 1e-3]))
    np.testing.assert_allclose(np.sort(np.abs(starts)), [1e-3, 1e3, 1e3], rtol=1e-12)


def test_certification_is_one_float64_pass(monkeypatch):
    # after the iteration, one Horner pass gives every root its value and the
    # sum that its backward error divides by
    calls = []
    horner, aberth = stellar.polyroots._horner, stellar.polyroots._aberth
    monkeypatch.setattr(stellar.polyroots, "_horner", lambda *a: calls.append(1) or horner(*a))
    monkeypatch.setattr(stellar.polyroots, "_aberth", lambda *a: (aberth(*a), calls.clear())[0])
    state = helpers.random_state(np.random.default_rng(68), 4)
    with pytest.raises(RootFindingError):
        find_roots(ComplexPolynomial(state.amplitudes), tol=1e-30)
    assert len(calls) == 1


@pytest.mark.parametrize("degree", [0, 1, 2, 15])
def test_tables_are_built_once_and_certification_forms_no_derivative(monkeypatch, degree):
    # one _tables call serves the Aberth loop and the certification pass, also at
    # degree <= 1, where _aberth returns early; only the iteration reads p' rows
    built, orders = [], []
    tables, blocked = stellar.polyroots._tables, stellar.polyroots._blocked
    monkeypatch.setattr(stellar.polyroots, "_tables", lambda c: built.append(1) or tables(c))
    monkeypatch.setattr(
        stellar.polyroots, "_blocked", lambda t, *a: orders.append(t.shape[1]) or blocked(t, *a)
    )
    coeffs = helpers.random_amplitudes(np.random.default_rng(69 + degree), degree + 1)
    result = find_roots(ComplexPolynomial(coeffs))
    assert result.roots.shape == (degree,)
    assert len(built) == 1
    assert orders[-1] == 1  # the certification pass: value rows only
    assert orders[:-1] == [2] * (len(orders) - 1) and (len(orders) > 1) == (degree > 1)


def test_evaluator_matches_extended_precision_on_both_sides_of_the_unit_circle():
    # _horner evaluates p at |x| <= 1 and the reversed polynomial at 1/x
    # beyond, where x^63 may overflow (|x| = 1e10); both must give p/p' and
    # the backward error of p(x) itself
    eps, rng = np.finfo(float).eps, np.random.default_rng(63)
    below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    turns = np.exp(1j * (2 * np.pi * np.arange(16) / 16 + 0.1))
    radii = np.outer([0.3, 0.9, below, above, 1.1, 3.0, 1e10], turns).ravel()
    axes = np.outer([below, above], [1, -1, 1j, -1j]).ravel()  # |x| exact
    points = np.concatenate([radii, axes])
    for n in range(1, 64):
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        x = points[np.min(np.abs(points[:, None] - np.roots(c[::-1])), axis=1) > 0.02]
        v, den, s = stellar.polyroots._horner(stellar.polyroots._tables(c), x)
        ce, xe, k = c.astype(np.clongdouble), x.astype(np.clongdouble), np.arange(1, n + 1)
        p, dp = helpers.extended_horner(ce, xe), helpers.extended_horner(k * ce[1:], xe)
        a, ax = np.abs(ce), np.abs(xe)
        sums, dsums = helpers.extended_horner(a, ax), helpers.extended_horner(k * a[1:], ax)
        # Horner's relative error is about n eps times the condition number
        cond = 1 + sums / np.abs(p) + dsums / np.abs(dp)
        assert np.all(np.abs(v / den - p / dp) <= 4 * n * eps * cond * np.abs(p / dp)), n
        assert np.all(np.abs(np.abs(v) / s - np.abs(p) / sums) <= 4 * n * eps), n
        assert np.any(np.abs(x) == above) and np.any(np.abs(x) == below), n


# degrees whose n + 1 coefficients fill their last block of m = isqrt(n) + 1,
# or leave one coefficient in it, and the degrees of N = 7..10
BLOCK_EDGE_DEGREES = sorted(
    {n for n in range(1, 301) if (n + 1) % (math.isqrt(n) + 1) in (0, 1)} | {127, 255, 511, 1023}
)


@pytest.mark.parametrize("n", BLOCK_EDGE_DEGREES)
def test_blocked_evaluator_within_its_proven_rounding_bound(n):
    # _horner's docstring: r_k z^k passes k complex products and at most
    # m + L - 2 additions, so |v - r(z)| <= (n mu + (m + L - 2) u) sum_k |r_k||z|^k,
    # and r' carries one rounding more, in k r_k; checked against the evaluated
    # order r (p at z = x, q at z = 1/x) in extended precision at the float64 z
    u = np.finfo(float).eps / 2
    mu = math.sqrt(2) * 2 * u / (1 - 2 * u)
    m = math.isqrt(n) + 1
    blocks = -(-(n + 1) // m)
    below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    turns = np.exp(1j * (2 * np.pi * np.arange(16) / 16 + 0.1))
    radii = np.outer([0.3, 0.9, below, above, 1.1, 3.0, 1e10], turns).ravel()
    x = np.concatenate([radii, np.outer([below, above], [1, -1, 1j, -1j]).ravel()])
    assert np.any(np.abs(x) == above) and np.any(np.abs(x) == below)
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    v, den, s = stellar.polyroots._horner(stellar.polyroots._tables(c), x)
    big = np.abs(x) > 1
    z = np.where(big, 1.0 / np.where(big, x, 1.0), x)
    ze, k = z.astype(np.clongdouble), np.arange(1, n + 1)

    def reference(r):  # value, derivative and both moduli sums of r at z
        a, az = np.abs(r), np.abs(ze)
        return (helpers.extended_horner(r, ze), helpers.extended_horner(k * r[1:], ze),
                helpers.extended_horner(a, az), helpers.extended_horner(k * a[1:], az))

    ce = c.astype(np.clongdouble)
    orders = zip(reference(ce), reference(ce[::-1]))  # p at |x| <= 1, q beyond
    value, deriv, sums, dsums = (np.where(big, q, p) for p, q in orders)
    value_error = (n * mu + (m + blocks - 2) * u) * sums
    deriv_error = ((n - 1) * mu + (m + blocks - 1) * u) * dsums
    assert np.all(np.abs(v - value) <= value_error)
    # each term of the sum carries k real products, m + L - 2 additions and
    # the roundings of |r_k| and, k times over, of |z|, each within 2u
    assert np.all(np.abs(s - sums) <= (3 * n + m + blocks) * u * sums)
    assert np.all(np.abs(den - deriv)[~big] <= deriv_error[~big])
    # at z = 1/x, den = n z v - z^2 r' adds the roundings of n z (u), of its
    # product with v and of z^2 and z^2 r' (mu each), and of the difference (u)
    az, av, ad = np.abs(z), np.abs(value), np.abs(deriv)
    q_error = (n * az * value_error + az * az * deriv_error
               + (2 * u + mu) * n * az * av + (u + 2 * mu) * az * az * ad)
    assert np.all(np.abs(den - (n * z * value - z * z * deriv))[big] <= q_error[big])


def test_iteration_limit_still_raises_on_a_large_polynomial():
    state = helpers.random_state(np.random.default_rng(67), 7)
    with pytest.raises(RootFindingError, match="best residual"):
        find_roots(ComplexPolynomial(state.amplitudes), max_iterations=1)


# the child's own resident high-water mark: ru_maxrss would carry the test process's
# over fork and exec
_ELEVEN_QUBIT_PEAK = """
import json
import numpy as np
from stellar import PureState, alt_constellation

def peak_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024

a = np.random.default_rng(1011).standard_normal((2048, 2))
state = PureState(11, a[:, 0] + 1j * a[:, 1])
before = peak_mb()
alt_constellation(state)
print(json.dumps(peak_mb() - before))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
def test_eleven_qubit_root_finding_forms_no_live_by_n_array():
    # the Aberth step's (live, n) float64 arrays were 32 MB each at n = 2047, and the
    # call's peak rose by about 160 MB; in blocks of 64 rows it rises by about 11 MB
    assert helpers.fresh_json(_ELEVEN_QUBIT_PEAK) <= 30.0
