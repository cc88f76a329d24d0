"""Minimal quantum simulation backend.

Dense statevector for small circuits plus a sparse two-term superposition
type used for the remote-state-preparation preimage register.

Conventions (used everywhere, never redeclared):
  * qubit indices are little-endian: qubit q is bit q of the amplitude
    array index, so qubit 0 varies fastest;
  * angles are Angle8 values, integers mod 8 in units of pi/4;
  * measured qubits are physically removed from the state, so an MBQC
    evaluation starts from the whole graph (n*m <= MAX_DENSE_QUBITS) and
    shrinks by one qubit per measured site;
  * global phase is unobservable: state equality is max-overlap >= 1-eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .primitives import CoinSource

MAX_DENSE_QUBITS = 24
_NORM_TOL = 1e-9
_DEGENERATE_TOL = 1e-12


class QsimError(Exception):
    pass


class Angle8(int):
    """Angle in units of pi/4, wrapping mod 8. The OQFE sub-protocols only
    ever produce even values (units of pi/2); call sites assert that."""

    def __new__(cls, value: int):
        return super().__new__(cls, int(value) % 8)

    def __add__(self, other):
        return Angle8(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Angle8(int(self) - int(other))

    def __rsub__(self, other):
        return Angle8(int(other) - int(self))

    def __neg__(self):
        return Angle8(-int(self))

    def __mul__(self, other):
        return Angle8(int(self) * int(other))

    __rmul__ = __mul__

    @property
    def radians(self) -> float:
        return int(self) * math.pi / 4.0

    @property
    def is_even(self) -> bool:
        return int(self) % 2 == 0


@dataclass(frozen=True)
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray  # complex128, length 2**num_qubits, unit norm

    def __post_init__(self):
        if self.num_qubits < 0 or self.num_qubits > MAX_DENSE_QUBITS:
            raise QsimError(f"qubit count {self.num_qubits} outside [0, {MAX_DENSE_QUBITS}]")
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise QsimError("amplitude array length mismatch")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > _NORM_TOL:
            raise QsimError(f"state not normalized: {norm}")


def make_state(num_qubits: int, amplitudes) -> StateVector:
    amps = np.asarray(amplitudes, dtype=np.complex128)
    norm = math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    if norm < _DEGENERATE_TOL:
        raise QsimError("zero state")
    return StateVector(num_qubits, amps / norm)


def basis_state(num_qubits: int, index: int) -> StateVector:
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def plus_state(angle: Angle8 = Angle8(0)) -> StateVector:
    """|+_theta> = (|0> + e^{i theta}|1>)/sqrt(2)."""
    amps = np.array([1.0, np.exp(1j * Angle8(angle).radians)], dtype=np.complex128) / math.sqrt(2)
    return StateVector(1, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; b's qubits become the high-index qubits."""
    amps = np.kron(b.amplitudes, a.amplitudes)
    return StateVector(a.num_qubits + b.num_qubits, amps)


@dataclass(frozen=True)
class TwoTermState:
    """(|basis_a> + relative_phase * |basis_b>)/sqrt(2), exactly."""

    bit_width: int
    basis_a: int
    basis_b: int
    relative_phase: complex

    def __post_init__(self):
        if self.basis_a == self.basis_b:
            raise QsimError("two-term basis states must differ")
        for b in (self.basis_a, self.basis_b):
            if not (0 <= b < (1 << self.bit_width)):
                raise QsimError("basis index exceeds bit width")
        if abs(abs(self.relative_phase) - 1.0) > 1e-12:
            raise QsimError("relative phase must be unit modulus")


def two_term_to_dense(t: TwoTermState) -> StateVector:
    if t.bit_width > MAX_DENSE_QUBITS:
        raise QsimError("two-term state too wide for dense conversion")
    amps = np.zeros(1 << t.bit_width, dtype=np.complex128)
    amps[t.basis_a] = 1.0 / math.sqrt(2)
    amps[t.basis_b] = t.relative_phase / math.sqrt(2)
    return StateVector(t.bit_width, amps)


# -------------------------------------------------------------------- gates

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _rz_matrix(angle: Angle8) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * Angle8(angle).radians)]], dtype=np.complex128)


def _gate_matrix(gate) -> tuple[np.ndarray, int]:
    """Returns (matrix, arity). Gate is 'H'|'X'|'Z'|'CZ' or ('RZ'|'RX', Angle8)."""
    if gate == "H":
        return _H, 1
    if gate == "X":
        return _X, 1
    if gate == "Z":
        return _Z, 1
    if gate == "CZ":
        return np.diag([1, 1, 1, -1]).astype(np.complex128), 2
    if isinstance(gate, tuple) and len(gate) == 2:
        kind, angle = gate
        if kind == "RZ":
            return _rz_matrix(angle), 1
        if kind == "RX":
            return _H @ _rz_matrix(angle) @ _H, 1
    raise QsimError(f"unknown gate {gate!r}")


def apply_gate(state: StateVector, gate, targets) -> StateVector:
    if isinstance(targets, int):
        targets = (targets,)
    mat, arity = _gate_matrix(gate)
    if len(targets) != arity:
        raise QsimError(f"gate {gate!r} takes {arity} targets, got {len(targets)}")
    if len(set(targets)) != len(targets):
        raise QsimError("duplicate targets")
    for q in targets:
        if not (0 <= q < state.num_qubits):
            raise QsimError(f"target {q} out of range")
    n = state.num_qubits
    tens = state.amplitudes.reshape((2,) * n)  # axis k holds qubit n-1-k
    axes = [n - 1 - q for q in targets]
    if arity == 1:
        tens = np.tensordot(mat, tens, axes=([1], [axes[0]]))
        tens = np.moveaxis(tens, 0, axes[0])
    else:
        tens = np.moveaxis(tens, axes, [0, 1])
        tens = tens.reshape(4, -1)
        # moveaxis put targets[0] at axis 0 (stride-major); matrix index is
        # (t0<<1)|t1 in our little-endian convention, consistent with CZ's
        # symmetric diagonal
        tens = (mat @ tens).reshape((2, 2) + (2,) * (n - 2))
        tens = np.moveaxis(tens, [0, 1], axes)
    return StateVector(n, np.ascontiguousarray(tens.reshape(-1)))


# -------------------------------------------------------------- measurements

def branch_z(state: StateVector, qubit: int) -> list[tuple[float, StateVector | None]]:
    """Both Z-measurement branches [(p0, post0), (p1, post1)]; the post state
    has the measured qubit removed. Zero-probability branches carry None."""
    if not (0 <= qubit < state.num_qubits):
        raise QsimError(f"qubit {qubit} out of range")
    n = state.num_qubits
    tens = state.amplitudes.reshape((2,) * n)
    axis = n - 1 - qubit
    out = []
    for outcome in (0, 1):
        sub = np.take(tens, outcome, axis=axis).reshape(-1)
        p = float(np.sum(np.abs(sub) ** 2))
        if p < _DEGENERATE_TOL:
            out.append((0.0, None))
        else:
            out.append((p, StateVector(n - 1, np.ascontiguousarray(sub) / math.sqrt(p))))
    total = out[0][0] + out[1][0]
    if abs(total - 1.0) > _NORM_TOL:
        raise QsimError("corrupted state: branch probabilities do not sum to 1")
    return out


def measure_z(state: StateVector, qubit: int, randomness: CoinSource) -> tuple[int, StateVector]:
    branches = branch_z(state, qubit)
    outcome = 1 if randomness.uniform() < branches[1][0] else 0
    post = branches[outcome][1]
    if post is None:
        raise QsimError("degenerate branch selected")
    return outcome, post


def branch_in_plane(state: StateVector, qubit: int, angle: Angle8):
    """(X,Y)-plane measurement branches at the given angle; outcome 0 is the
    |+_angle> projector (rotate by Rz(-angle), then H, then Z-measure)."""
    rotated = apply_gate(apply_gate(state, ("RZ", Angle8(-Angle8(angle))), qubit), "H", qubit)
    return branch_z(rotated, qubit)


def measure_in_plane(state: StateVector, qubit: int, angle: Angle8,
                     randomness: CoinSource) -> tuple[int, StateVector]:
    branches = branch_in_plane(state, qubit, angle)
    outcome = 1 if randomness.uniform() < branches[1][0] else 0
    post = branches[outcome][1]
    if post is None:
        raise QsimError("degenerate branch selected")
    return outcome, post


@dataclass(frozen=True)
class Branch:
    outcomes: tuple
    probability: float
    residual: StateVector | None
    impossible: bool


def enumerate_branches(state: StateVector, plan) -> list[Branch]:
    """All measurement branches for an ordered plan of (qubit, 'Z'|Angle8).

    Plan qubits are indices into the *initial* state; the bookkeeping for
    qubit removal is internal. Zero-probability branches are retained and
    flagged so callers can assert exactly which outcomes are forbidden.
    """
    qubits = [q for q, _ in plan]
    if len(set(qubits)) != len(qubits):
        raise QsimError("plan qubits must be distinct")

    results: list[Branch] = []

    def walk(st: StateVector | None, live: list[int], idx: int, outs: tuple, prob: float):
        if idx == len(plan):
            results.append(Branch(outs, prob, st, st is None))
            return
        q, basis = plan[idx]
        if st is None:  # inside an impossible branch: enumerate outcomes with p=0
            for outcome in (0, 1):
                walk(None, live, idx + 1, outs + (outcome,), 0.0)
            return
        cur = live.index(q)
        if basis == "Z":
            branches = branch_z(st, cur)
        else:
            branches = branch_in_plane(st, cur, Angle8(basis))
        nxt = live[:cur] + live[cur + 1:]
        for outcome, (p, post) in enumerate(branches):
            walk(post, nxt, idx + 1, outs + (outcome,), prob * p)

    walk(state, list(range(state.num_qubits)), 0, (), 1.0)
    total = sum(b.probability for b in results)
    if abs(total - 1.0) > _NORM_TOL:
        raise QsimError("branch probabilities do not sum to 1")
    return results


def overlap(a: StateVector, b: StateVector) -> float:
    """|<a|b>|; equality up to global phase means overlap ~ 1."""
    if a.num_qubits != b.num_qubits:
        raise QsimError("qubit count mismatch")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))
