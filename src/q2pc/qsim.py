"""Minimal quantum simulation backend.

Dense statevector for small circuits, with one measurement kernel for
sampled and exact measurements.

Conventions (used everywhere, never redeclared):
  * qubit indices are little-endian: qubit q is bit q of the amplitude
    array index, so qubit 0 varies fastest;
  * angles are Angle8 values, integers mod 8 in units of pi/4; a gate
    angle or basis that is not an integer (or 'Z') is a QsimError;
  * apply_gate runs a one-qubit gate as one np.dot over the amplitudes
    viewed as (high, 2, low); gate matrices are shared and read-only,
    each RZ/RX matrix built once per Angle8 value;
  * measured qubits are physically removed from the state;
  * one kernel, split_branches, performs every measurement, sampled or
    exact.  It holds every branch at once, unnormalized, as one
    (branches, 2**live) array: each measurement doubles the rows and
    halves the row width, so an MBQC evaluation of the whole graph
    (n*m <= MAX_DENSE_QUBITS) holds at most 2**(n*m) amplitudes at every
    step.  measure samples one outcome from a single row;
    enumerate_branches and the MBQC laws keep every row;
  * global phase is unobservable: state equality is max-overlap >= 1-eps;
  * scales and norms run as real operations on the amplitudes' float64
    view: a scale is a multiply by the reciprocal, with the same values as
    numpy's complex / real, and a norm is one einsum pass.  No amplitude
    array in the state check or the measurement path reaches a BLAS call
    (np.dot, np.vdot, np.inner): OpenBLAS threads its dot products above
    10**4 elements, which costs throughput on a 2-vCPU host running both
    protocol threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .primitives import CoinSource

MAX_DENSE_QUBITS = 24
_NORM_TOL = 1e-9
_DEGENERATE_TOL = 1e-12
_INV_SQRT2 = 1 / math.sqrt(2)


class QsimError(Exception):
    pass


def _floats(amps) -> np.ndarray:
    """amps as contiguous complex128 (no copy if already), as float64 pairs."""
    return np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64)


def _sq_norms(amps) -> np.ndarray:
    """|amps|^2 of a vector or of each row: one einsum pass, never BLAS."""
    flat = _floats(amps)
    return np.einsum("ij,ij->i" if flat.ndim == 2 else "i,i->", flat, flat)


def _scaled(amps, scale) -> np.ndarray:
    """amps * real scale (a scalar, or a column with one per row) on the
    float64 view; for scale = 1 / d, the values of numpy's complex amps / d."""
    return (_floats(amps) * scale).view(np.complex128)


class Angle8(int):
    """Angle in units of pi/4, wrapping mod 8. The OQFE sub-protocols only
    ever produce even values (units of pi/2); call sites assert that.  Only
    an int or a numpy integer is an angle: 2.5, "3" or True is a QsimError,
    never truncated."""

    def __new__(cls, value: int):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise QsimError(f"angle {value!r} is not an integer")
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
        norm = float(_sq_norms(self.amplitudes))
        if abs(norm - 1.0) > _NORM_TOL:
            raise QsimError(f"state not normalized: {norm}")


def make_state(num_qubits: int, amplitudes) -> StateVector:
    amps = np.ascontiguousarray(amplitudes, dtype=np.complex128)
    norm = math.sqrt(float(_sq_norms(amps)))
    if norm < _DEGENERATE_TOL:
        raise QsimError("zero state")
    return StateVector(num_qubits, _scaled(amps, 1 / norm))


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


# -------------------------------------------------------------------- gates

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_H.flags.writeable = _X.flags.writeable = _Z.flags.writeable = False
# (kind, Angle8) -> read-only matrix, built on first use: at most 16
# entries, and two threads racing on one only build it twice
_ROTATIONS: dict = {}


def _rotation(kind: str, angle) -> np.ndarray:
    """The RZ or RX matrix at an integer angle, built once per Angle8 value."""
    key = (kind, Angle8(angle))
    mat = _ROTATIONS.get(key)
    if mat is None:
        mat = np.array([[1, 0], [0, np.exp(1j * key[1].radians)]], dtype=np.complex128)
        if kind == "RX":
            mat = _H @ mat @ _H
        mat.flags.writeable = False
        _ROTATIONS[key] = mat
    return mat


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
    if isinstance(gate, tuple) and len(gate) == 2 and gate[0] in ("RZ", "RX"):
        return _rotation(*gate), 1
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
    if arity == 1:
        # amplitudes as (high, 2, low): the target's bit is the middle axis;
        # the (2, high*low) operand and np.dot call are np.tensordot's
        low = 1 << targets[0]
        parts = state.amplitudes.reshape(-1, 2, low).transpose(1, 0, 2).reshape(2, -1)
        out = np.dot(mat, parts).reshape(2, -1, low).transpose(1, 0, 2)
        return StateVector(n, out.reshape(-1))
    tens = state.amplitudes.reshape((2,) * n)  # axis k holds qubit n-1-k
    axes = [n - 1 - q for q in targets]
    tens = np.moveaxis(tens, axes, [0, 1])
    tens = tens.reshape(4, -1)
    # moveaxis put targets[0] at axis 0 (stride-major); matrix index is
    # (t0<<1)|t1 in our little-endian convention, consistent with CZ's
    # symmetric diagonal
    tens = (mat @ tens).reshape((2, 2) + (2,) * (n - 2))
    tens = np.moveaxis(tens, [0, 1], axes)
    return StateVector(n, np.ascontiguousarray(tens.reshape(-1)))


# -------------------------------------------------------------- measurements

# e^{-i a pi/4} for a = 0..7: the in-plane phase of split_branches
_PHASES = np.exp(-0.25j * math.pi * np.arange(8))
_PHASES.flags.writeable = False


@dataclass(frozen=True)
class Branch:
    outcomes: tuple
    probability: float
    residual: StateVector | None
    impossible: bool


def split_branches(amps: np.ndarray, history: np.ndarray, qubit: int,
                   basis) -> tuple[np.ndarray, np.ndarray]:
    """One measurement of live qubit `qubit` on every branch at once.

    amps is (branches, 2**live) and unnormalized: row k is the branch whose
    outcomes so far are the bits of history[k] (first outcome most
    significant), and |row|^2 is its probability.  basis is 'Z' or Angle8
    values, one for every row or an integer array with one per row; an
    in-plane outcome is 0 on |+_angle>, so the children of (lo, hi) are
    (lo +- e^{-i angle pi/4} hi)/sqrt(2), the phase read from an 8-entry
    table.  Any other basis is a QsimError.  Returns the children's
    (amps, history), (branches', 2**(live-1)), still in history order; a
    child whose conditional probability is below the degenerate tolerance
    is dropped, and so are all its descendants."""
    rows, width = amps.shape
    parts = amps.reshape(rows, width >> (qubit + 1), 2, 1 << qubit)
    lo, hi = parts[:, :, 0, :], parts[:, :, 1, :]
    if isinstance(basis, str):
        if basis != "Z":
            raise QsimError(f"unknown basis {basis!r}")
        children = np.stack((lo, hi), axis=1)
    else:
        angle = np.asarray(basis)
        if angle.dtype.kind not in "iu":
            raise QsimError(f"unknown basis {basis!r}")
        children = np.empty((rows, 2) + lo.shape[1:], dtype=np.complex128)
        hi = np.multiply(hi, _PHASES[angle & 7].reshape(-1, 1, 1), out=children[:, 1])
        np.add(lo, hi, out=children[:, 0])
        np.subtract(lo, hi, out=hi)
        flat = children.view(np.float64)
        np.multiply(flat, _INV_SQRT2, out=flat)
    children = children.reshape(2 * rows, width >> 1)
    weights = _sq_norms(children)
    parent = weights.reshape(rows, 2).sum(axis=1)
    keep = weights >= _DEGENERATE_TOL * np.repeat(parent, 2)
    history = ((history << 1)[:, None] | (0, 1)).reshape(-1)
    if keep.all():
        return children, history
    return children[keep], history[keep]


def measure(state: StateVector, qubit: int, basis,
            coins: CoinSource) -> tuple[int, StateVector]:
    """Sampled measurement of `qubit` in basis 'Z' or in-plane at an Angle8
    (outcome 0 on |+_angle>): split_branches on the one row, outcome 1 iff
    coins.uniform() < P(1).  Returns (outcome, post state), the measured
    qubit removed and the post state normalized."""
    if not (0 <= qubit < state.num_qubits):
        raise QsimError(f"qubit {qubit} out of range")
    amps, outcomes = split_branches(state.amplitudes.reshape(1, -1),
                                    np.zeros(1, dtype=np.int64), qubit, basis)
    probs = _sq_norms(amps)
    p1 = float(probs[-1]) if outcomes[-1] == 1 else 0.0
    outcome = 1 if coins.uniform() < p1 else 0
    kept = np.flatnonzero(outcomes == outcome)
    if kept.size == 0:
        raise QsimError("degenerate branch selected")
    k = kept[0]
    return outcome, StateVector(state.num_qubits - 1,
                                _scaled(amps[k], 1 / math.sqrt(probs[k])))


def enumerate_branches(state: StateVector, plan) -> list[Branch]:
    """All measurement branches for an ordered plan of (qubit, 'Z'|Angle8),
    in outcome order (first outcome most significant).

    Plan qubits are indices into the *initial* state; the bookkeeping for
    qubit removal is internal.  Every branch is walked at once by
    split_branches.  Zero-probability branches are retained and flagged so
    callers can assert exactly which outcomes are forbidden.
    """
    qubits = [q for q, _ in plan]
    if len(set(qubits)) != len(qubits):
        raise QsimError("plan qubits must be distinct")
    live = list(range(state.num_qubits))
    amps = state.amplitudes.reshape(1, -1)
    history = np.zeros(1, dtype=np.int64)
    for q, basis in plan:
        if q not in live:
            raise QsimError(f"qubit {q} out of range")
        cur = live.index(q)
        amps, history = split_branches(amps, history, cur, basis)
        del live[cur]
    probs = (amps.real ** 2 + amps.imag ** 2).sum(axis=1)
    residuals = _scaled(amps, 1 / np.sqrt(probs)[:, None])
    row = np.full(1 << len(plan), -1)   # history -> row, -1 when dropped
    row[history] = np.arange(len(history))
    results = []
    # product() yields the outcome tuples in history order
    for outs, k in zip(itertools.product((0, 1), repeat=len(plan)), row):
        if k < 0:
            results.append(Branch(outs, 0.0, None, True))
        else:
            results.append(Branch(outs, float(probs[k]),
                                  StateVector(len(live), residuals[k]), False))
    total = sum(b.probability for b in results)
    if abs(total - 1.0) > _NORM_TOL:
        raise QsimError("branch probabilities do not sum to 1")
    return results


def overlap(a: StateVector, b: StateVector) -> float:
    """|<a|b>|; equality up to global phase means overlap ~ 1."""
    if a.num_qubits != b.num_qubits:
        raise QsimError("qubit count mismatch")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))
