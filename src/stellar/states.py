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


def _set_amplitudes(state, fits, expected: str) -> None:
    """Store a read-only complex copy of state.amplitudes: a length that fits,
    finite, not all zero; expected describes the length in the error."""
    amps = np.array(state.amplitudes, dtype=complex)
    if amps.ndim != 1 or not fits(amps.shape[0]):
        raise ValueError(f"expected {expected}, got shape {amps.shape}")
    if not np.all(np.isfinite(amps)):
        raise ValueError("state vector has a non-finite amplitude")
    if not np.any(np.abs(amps) > 0):
        raise ValueError("state vector is identically zero")
    amps.flags.writeable = False
    object.__setattr__(state, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unnormalized N-qubit pure state in the decimal basis ordering."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = self.n_qubits
        if n < 1:
            raise ValueError("need at least one qubit")
        # 2^n is formed only for an n below the bit length of the count m
        fits = lambda m: n < m.bit_length() and m == 2**n
        _set_amplitudes(self, fits, f"2^{n} amplitudes for {n} qubits")

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
        if self.two_S < 1:
            raise ValueError("two_S must be a positive integer")
        size = self.two_S + 1
        _set_amplitudes(self, lambda m: m == size, f"{size} amplitudes for two_S={self.two_S}")

    def __reduce__(self):  # copies and unpickled states are rebuilt, so checked and read-only
        return SpinState, (self.two_S, self.amplitudes)


@dataclass(frozen=True)
class BasisLabel:
    """Computational basis ket |i_0 i_1 ... i_{N-1}> as a bit tuple."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        object.__setattr__(self, "bits", bits)
        if len(bits) < 1:
            raise ValueError("empty basis label")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0 or 1, got {bits}")


def make_pure_state(n_qubits: int, amplitudes) -> PureState:
    """Validate and wrap a dense amplitude vector as an N-qubit state."""
    return PureState(n_qubits, amplitudes)


def decimal_index(label: BasisLabel) -> int:
    """Decimal position of a basis ket: qubit j contributes i_j * 2^j."""
    return sum(b << j for j, b in enumerate(label.bits))


def label_from_index(index: int, n_qubits: int) -> BasisLabel:
    """Inverse of decimal_index for a register of n_qubits."""
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
    """<a|b>, <a|a> and <b|b> of the two vectors, each first divided by its
    largest modulus so that no product overflows or underflows."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("state vector has a non-finite amplitude")
    if not (np.any(a) and np.any(b)):
        raise ValueError("state vector is identically zero")
    a, b = a / np.abs(a).max(), b / np.abs(b).max()
    return np.vdot(a, b), np.vdot(a, a).real, np.vdot(b, b).real


def ray_fidelity(a, b) -> float:
    """|<a|b>|^2 / (<a|a><b|b>): 1.0 iff the two vectors are proportional."""
    ab, aa, bb = _overlap_terms(a, b)
    return float(abs(ab) ** 2 / (aa * bb))


def rays_equal(a, b, tol: float = DEFAULT_RAY_TOL) -> bool:
    """Whether two amplitude vectors agree up to one global complex scale."""
    ab, aa, bb = _overlap_terms(a, b)
    # Cauchy-Schwarz defect normalized to the vector norms
    return aa * bb - abs(ab) ** 2 <= tol * aa * bb
