"""Pure-state containers and the qubit <-> large-spin correspondence.

An N-qubit pure state is stored as a dense vector of 2^N complex amplitudes
indexed by the decimal reading of the bit string, with qubit 0 the least
significant bit:

    i = sum_j i_j * 2^j,   |i_0 i_1 ... i_{N-1}>  <->  amplitudes[i]

A spin-S pure state is stored as 2S+1 amplitudes in ascending magnetic
order, amplitudes[m] belonging to M = m - S.

States are rays: no function here normalizes, and all equality helpers
compare up to one global complex scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PureState",
    "SpinState",
    "BasisLabel",
    "DEFAULT_RAY_TOL",
    "make_pure_state",
    "decimal_index",
    "label_from_index",
    "tensor_product",
    "spin_from_qubits",
    "qubits_from_spin",
    "rays_equal",
    "ray_fidelity",
]

# Module-wide default tolerance for equality-up-to-scale comparisons.
DEFAULT_RAY_TOL = 1e-10


def _count(value, name: str) -> int:
    """value as a Python int: it must be an int or a numpy integer, not a bool
    (numpy's included), a float or a string. The one place that decides which
    sizes and indices are valid; their ranges are checked where they are used."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"{name} must be an integer, got {value!r:.40}")


def _holds_bool(values) -> bool:
    """Whether a list or tuple holds a bool or bool array at any depth, read one level at a time."""
    while True:
        types = set(map(type, values))
        if bool in types or np.bool_ in types:
            return True
        if np.ndarray in types and any(getattr(v, "dtype", None) == bool for v in values):
            return True
        if not any(issubclass(t, (list, tuple)) for t in types):
            return False
        values = [w for v in values if isinstance(v, (list, tuple)) for w in v]


def _numbers(values, dtype, name: str, shape: tuple | None = None) -> np.ndarray:
    """The one rule for which inputs are numbers: values as a float64 or complex128 array (dtype
    float or complex), else TypeError naming them unless each entry is a number (a real one for
    float; a bool is none, as for _count, also inside a list or tuple of numbers), then ValueError
    unless it has the given shape, () a scalar, or if one is NaN or inf."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged: refused below as an object
        a = np.array(None)
    numeric = a.dtype.kind in ("iufc" if dtype is complex else "iuf")
    # numpy reads a bool among numbers as 0 or 1
    if not numeric or isinstance(values, (list, tuple)) and _holds_bool(values):
        real, kind = "" if dtype is complex else "real ", a.dtype if not numeric else "bool"
        raise TypeError(f"{name} must hold {real}numbers, got {kind} entries")
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} of shape {a.shape}, expected {shape}")
    if np.count_nonzero(np.isfinite(a)) < a.size:  # faster than .all() on a few entries
        raise ValueError(f"{name} has a non-finite entry")
    return a.astype(dtype, copy=False)


def _tolerance(tol) -> float:
    """tol as _numbers reads one real number, else ValueError unless it lies in [0, 1): each tol
    bounds a ratio in [0, 1], which a negative tol never meets and one of 1 or more always does."""
    tol = float(_numbers(tol, float, "tol", ()))
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tol must lie in [0, 1), got {tol!r}")
    return tol


def _vector(values, fits, expected: str, name: str) -> np.ndarray:
    """A read-only copy of values as _numbers reads them, else a ValueError naming the
    vector unless it is 1-d with a length that fits (expected describes it) and not all
    zero. The one reader of state amplitudes, polynomial coefficients and ray vectors."""
    v = np.array(_numbers(values, complex, name), ndmin=1)
    if v.ndim != 1 or not fits(v.shape[0]):
        raise ValueError(f"{name}: expected a 1-d array of {expected}, got shape {v.shape}")
    if not np.any(np.abs(v) > 0):
        raise ValueError(f"{name} is identically zero")
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class PureState:
    """Unnormalized N-qubit pure state in the decimal basis ordering."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _count(self.n_qubits, "n_qubits")
        object.__setattr__(self, "n_qubits", n)
        if n < 1:
            raise ValueError("need at least one qubit")
        # 2^n is formed only for an n below the bit length of the count m
        fits = lambda m: n < m.bit_length() and m == 2**n
        amps = _vector(self.amplitudes, fits, f"2^{n} amplitudes for {n} qubits", "state vector")
        object.__setattr__(self, "amplitudes", amps)

    def __reduce__(self):  # copies and unpickled states are rebuilt, so checked and read-only
        return PureState, (self.n_qubits, self.amplitudes)


@dataclass(frozen=True, eq=False)
class SpinState:
    """Unnormalized spin-S pure state; amplitudes[m] sits at M = m - S.

    two_S is the doubled spin, so half-integer spins stay integral.
    """

    two_S: int
    amplitudes: np.ndarray

    def __post_init__(self):
        two_S = _count(self.two_S, "two_S")
        object.__setattr__(self, "two_S", two_S)
        if two_S < 1:
            raise ValueError("two_S must be a positive integer")
        expected = f"{two_S + 1} amplitudes for two_S={two_S}"
        amps = _vector(self.amplitudes, lambda m: m == two_S + 1, expected, "state vector")
        object.__setattr__(self, "amplitudes", amps)

    def __reduce__(self):  # copies and unpickled states are rebuilt, so checked and read-only
        return SpinState, (self.two_S, self.amplitudes)


@dataclass(frozen=True)
class BasisLabel:
    """Computational basis ket |i_0 i_1 ... i_{N-1}> as a bit tuple."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(_count(b, "bit") for b in self.bits)
        object.__setattr__(self, "bits", bits)
        if len(bits) < 1:
            raise ValueError("empty basis label")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0 or 1, got {bits}")


make_pure_state = PureState  # the checked constructor under its functional name


def decimal_index(label: BasisLabel) -> int:
    """Decimal position of a basis ket: qubit j contributes i_j * 2^j."""
    return sum(b << j for j, b in enumerate(label.bits))


def label_from_index(index: int, n_qubits: int) -> BasisLabel:
    """Inverse of decimal_index for a register of n_qubits."""
    index, n_qubits = _count(index, "index"), _count(n_qubits, "n_qubits")
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"index {index} out of range for {n_qubits} qubits")
    return BasisLabel(tuple((index >> j) & 1 for j in range(n_qubits)))


def tensor_product(factors: list[PureState]) -> PureState:
    """Combine single- or multi-qubit states, earlier factors on lower bits.

    The combined amplitude at i = i_first + 2^(n_first) * i_rest is the
    product of the factor amplitudes, so factors[0] owns qubit 0.
    """
    if not factors:
        raise ValueError("tensor_product of an empty factor list")
    amps = factors[0].amplitudes
    n = factors[0].n_qubits
    for f in factors[1:]:
        # kron(high, low): low factor varies fastest, i.e. occupies low bits
        amps = np.kron(f.amplitudes, amps)
        n += f.n_qubits
    return PureState(n, amps)


def spin_from_qubits(state: PureState) -> SpinState:
    """Reinterpret an N-qubit state as one spin of size 2S = 2^N - 1.

    The decimal basis ket |i> is identified with |S, M = i - S>, so the
    amplitude vector carries over unchanged and |0...0> sits at M = -S.
    """
    return SpinState(2**state.n_qubits - 1, state.amplitudes)


def qubits_from_spin(spin: SpinState) -> PureState:
    """Inverse identification; requires 2S + 1 to be a power of two."""
    dim = spin.two_S + 1
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"spin dimension {dim} is not a power of two")
    return PureState(n, spin.amplitudes)


def _overlap_terms(a, b):
    """<a|b>, <a|a> and <b|b> of two vectors read as state vectors are, each first
    divided by its largest modulus so that no product overflows or underflows."""
    a = _vector(a, lambda m: m > 0, "at least one amplitude", "state vector a")
    b = _vector(b, lambda m: m == a.size, f"{a.size} amplitudes, as a has", "state vector b")
    a, b = a / np.abs(a).max(), b / np.abs(b).max()
    return np.vdot(a, b), np.vdot(a, a).real, np.vdot(b, b).real


def ray_fidelity(a, b) -> float:
    """|<a|b>|^2 / (<a|a><b|b>): 1.0 iff the two vectors are proportional."""
    ab, aa, bb = _overlap_terms(a, b)
    return float(abs(ab) ** 2 / (aa * bb))


def rays_equal(a, b, tol: float = DEFAULT_RAY_TOL) -> bool:
    """Whether two amplitude vectors agree up to one global complex scale, their
    Cauchy-Schwarz defect at most tol, which _tolerance reads."""
    tol = _tolerance(tol)
    ab, aa, bb = _overlap_terms(a, b)
    # Cauchy-Schwarz defect normalized to the vector norms
    return bool(aa * bb - abs(ab) ** 2 <= tol * aa * bb)
