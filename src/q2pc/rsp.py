"""Remote state preparation: a classical party makes a quantum party hold
|+_theta> while keeping part of theta hidden.

Four-state core: Bob evaluates the 2-regular function in superposition.
Rather than simulating the full evaluation unitary, both backends use the
collapse shortcut: sample the image point y classically, then work with the
surviving two-term preimage superposition

    (|enc(x)>|h(x)> + |enc(x')>|h(x')>) / sqrt(2),

which is exactly distribution-preserving.  Bob measures the W preimage
qubits in the |+>/|-> basis (outcomes w), then applies H Rz(-pi/2) to the
target.  Alice inverts y with the trapdoor and decodes

    theta2 = h(x) xor h(x'),
    theta1 = (theta2 * <w, enc(x) xor enc(x')>) xor h(x) h(x'),

and the held qubit is |+_theta> with theta = 4*theta1 + 2*theta2 (Angle8
units of pi/4), exactly.  theta2 always equals the keypair's hardcore bit.

The classical-shortcut backend samples the same transcript law analytically:
w is uniform when the two h values differ, and uniform over the even-parity
half-space <w, enc(x) xor enc(x')> = 0 when they agree (odd-parity outcomes
have amplitude zero), by folding a uniform draw.  The exact w laws are
length-2^W vectors indexed by w_int = sum_i w_i 2^i: w_law_for_pair pushes
every draw through that fold; its oracle w_law_dense enumerates quantum Bob.

Eight-state composition (merge circuit is an implementation choice,
validated branch-by-branch in the test suite): run the 4-state protocol
twice, the second run stopped before the final H Rz(-pi/2) so Bob holds a
BB84 state H^{theta2'} X^{theta1'} |0>.  Bob draws a public coin u in
Angle8, applies Rz(u * pi/4) to the first qubit, entangles CZ, measures the
second qubit in-plane at angle pi/2 (outcome t), and reports (u, t).  Alice
computes

    theta = alpha + u + 4*theta1'                      if theta2' = 0
    theta = alpha + u + 2*(-1)^(theta1' xor t)         if theta2' = 1

with alpha = 4*theta1 + 2*theta2.  The parity of theta equals the public
coin u's parity; only the two pi/2-unit bits are hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice, qsim
from .lattice import (LatticeParams, NotInImageError, Preimage, PublicKey,
                      TrapdoorKeypair, TwoRegularityError)
from .primitives import CoinSource
from .qsim import Angle8, StateVector

_MAX_RESAMPLES = 10000


class RspError(Exception):
    pass


class RspAbort(RspError):
    """Dishonest or broken counterparty: a malformed report or an
    undecodable y."""


@dataclass(frozen=True)
class RspAliceOutput:
    theta1: int
    theta2: int

    @property
    def theta(self) -> Angle8:
        return Angle8(4 * self.theta1 + 2 * self.theta2)


@dataclass(frozen=True)
class RspBobOutput:
    state: StateVector          # 1 qubit
    y: tuple                    # image point, tuple over Z_q
    w_meas: tuple               # W measurement bits
    resamples: int = 0          # boundary collisions skipped (honest Bob)


def sample_domain_point(params: LatticeParams, coins: CoinSource) -> Preimage:
    s = tuple(coins.randint(params.q) for _ in range(params.n))
    e = tuple(coins.randint(2 * params.sigma + 1) - params.sigma
              for _ in range(params.m))
    return Preimage(s, e, coins.bit(), coins.bit())


def _sample_image_pair(pk: PublicKey, coins: CoinSource):
    """Uniform regular image point with both preimages, read off the public
    key's image table (enumerable domains only); collisions counted."""
    census = lattice.image_census(pk)
    resamples = 0
    while True:
        z = sample_domain_point(pk.params, coins)
        y = tuple(int(v) for v in lattice.eval_f(pk, z))
        try:
            x, xp = census.pair(y)
            return y, x, xp, resamples
        except TwoRegularityError:
            resamples += 1
            if resamples > _MAX_RESAMPLES:
                raise RspError("boundary collisions exhausted resample budget")


def _preimage_register(params: LatticeParams, x: Preimage,
                       xp: Preimage) -> StateVector:
    """The post-collapse register (|enc(x)>|h(x)> + |enc(x')>|h(x')>)/sqrt(2):
    W preimage qubits, then the hardcore qubit."""
    W = params.preimage_bits
    if W + 1 > qsim.MAX_DENSE_QUBITS:
        raise RspError("preimage register exceeds dense budget")
    amps = np.zeros(1 << (W + 1), dtype=np.complex128)
    for z in (x, xp):
        amps[lattice.encode(params, z) | (lattice.hardcore(z) << W)] = 1.0 / math.sqrt(2)
    return StateVector(W + 1, amps)


def _inner_parity(w, delta: int):
    """<w, delta> mod 2 of an int w or of each entry of an int array w."""
    v = w & delta
    for k in range(delta.bit_length().bit_length()):
        v ^= v >> (1 << k)   # bit 0 now XORs bits 0 .. 2^(k+1) - 1
    return v & 1


def _fold_w(w, delta: int, hx: int, hxp: int):
    """The shortcut's w from a uniform W-bit draw w (an int or an int
    array): when the h values agree, odd-parity outcomes are forbidden and
    fold along delta's lowest set bit onto the even half-space."""
    return w if hx ^ hxp else w ^ (delta & -delta) * _inner_parity(w, delta)


def _w_tuple(w_int: int, width: int) -> tuple:
    return tuple((w_int >> i) & 1 for i in range(width))


def w_int_of(w_meas) -> int:
    return sum(b << i for i, b in enumerate(w_meas))


def _finish_rotation(state: StateVector) -> StateVector:
    # Rz(-pi/2) first, then H
    return qsim.apply_gate(qsim.apply_gate(state, ("RZ", Angle8(-2)), 0), "H", 0)


def rsp_bob_quantum(pk: PublicKey, coins: CoinSource,
                    raw: bool = False) -> RspBobOutput:
    """Quantum Bob: holds the two-term superposition densely and measures it.

    Needs the sibling preimage to build the post-collapse state, so it
    looks y up in the public key's image table; enumerable domains only.
    raw=True stops before the final H Rz(-pi/2) (8-state second run)."""
    y, x, xp, resamples = _sample_image_pair(pk, coins)
    state = _preimage_register(pk.params, x, xp)
    w = []
    for _ in range(pk.params.preimage_bits):
        # measured qubit is removed, so the register front stays at index 0
        bit, state = qsim.measure(state, 0, Angle8(0), coins)
        w.append(bit)
    if not raw:
        state = _finish_rotation(state)
    return RspBobOutput(state, y, tuple(w), resamples)


def rsp_bob_shortcut(pk: PublicKey, coins: CoinSource,
                     raw: bool = False) -> RspBobOutput:
    """Classical Bob stand-in: samples the honest transcript law and
    reconstructs the held qubit analytically from the preimage pair, read
    off the public key's image table like quantum Bob's."""
    p = pk.params
    y, x, xp, resamples = _sample_image_pair(pk, coins)
    W = p.preimage_bits
    delta = lattice.encode(p, x) ^ lattice.encode(p, xp)
    hx, hxp = lattice.hardcore(x), lattice.hardcore(xp)
    w_int = _fold_w(coins.bits(W), delta, hx, hxp)
    if hx ^ hxp:
        state = qsim.plus_state(Angle8(4 * _inner_parity(w_int, delta)))
    else:
        state = qsim.basis_state(1, hx)
    if not raw:
        state = _finish_rotation(state)
    return RspBobOutput(state, y, _w_tuple(w_int, W), resamples)


def _ints_below(values, bound: int, width: int) -> bool:
    """values is a list or tuple of width ints (bools excluded), each in
    [0, bound)."""
    return (isinstance(values, (list, tuple)) and len(values) == width
            and all(type(v) is int and 0 <= v < bound for v in values))


def rsp_alice_decode(kp: TrapdoorKeypair, y, w_meas) -> RspAliceOutput:
    """Alice's (theta1, theta2) from Bob's report; RspAbort unless y is m
    integers mod q with two preimages and w_meas is preimage_bits bits."""
    p = kp.params
    if not _ints_below(y, p.q, p.m):
        raise RspAbort(f"received y is not {p.m} integers mod {p.q}")
    if not _ints_below(w_meas, 2, p.preimage_bits):
        raise RspAbort(f"measurement string is not {p.preimage_bits} bits")
    try:
        x, xp = lattice.invert(kp, np.array(y, dtype=np.int64))
    except NotInImageError as exc:
        raise RspAbort(f"received y is undecodable: {exc}") from exc
    theta2 = lattice.hardcore(x) ^ lattice.hardcore(xp)
    delta = lattice.encode(p, x) ^ lattice.encode(p, xp)
    theta1 = ((theta2 & _inner_parity(w_int_of(w_meas), delta))
              ^ (lattice.hardcore(x) & lattice.hardcore(xp)))
    return RspAliceOutput(theta1, theta2)


# ------------------------------------------------- exact transcript laws

def w_law_for_pair(params: LatticeParams, x: Preimage, xp: Preimage) -> np.ndarray:
    """Exact conditional law of w given the image point, the shortcut's fold
    of every W-bit draw: a length-2^W probability vector indexed by w_int."""
    W = params.preimage_bits
    delta = lattice.encode(params, x) ^ lattice.encode(params, xp)
    w = _fold_w(np.arange(1 << W), delta, lattice.hardcore(x), lattice.hardcore(xp))
    return np.bincount(w, minlength=1 << W) / (1 << W)


def w_law_dense(params: LatticeParams, x: Preimage, xp: Preimage) -> np.ndarray:
    """Oracle for w_law_for_pair: dense branch enumeration of the +/- basis
    measurements on the two-term state, as a length-2^W probability vector
    indexed by w_int (0.0 on the dropped branches)."""
    W = params.preimage_bits
    amps = _preimage_register(params, x, xp).amplitudes.reshape(1, -1)
    history = np.zeros(1, dtype=np.int64)
    for _ in range(W):
        # measured qubit is removed, so the register front stays at index 0
        amps, history = qsim.split_branches(amps, history, 0, Angle8(0))
    # a history holds w_0 as its most significant bit, w_int as its least
    # significant: reverse the W bits
    w_ints = ((history[:, None] >> np.arange(W - 1, -1, -1)) & 1) @ (1 << np.arange(W))
    law = np.zeros(1 << W)
    law[w_ints] = (amps.real ** 2 + amps.imag ** 2).sum(axis=1)
    return law


def transcript_law(pk: PublicKey) -> list[tuple]:
    """Exact honest-run law of the rsp.meas message, per image point:
    [(y, p_y, x, x')] over the 2-regular part of the image, in first-seen
    order, with y uniform (p_y) and w given y following
    w_law_for_pair(params, x, x').  Both backends sample exactly this law;
    enumerable domains only."""
    census = lattice.image_census(pk)
    regular = census.regular_points()
    p_y = 1.0 / len(regular)
    return [(y, p_y, *census.pair(y)) for y in regular]


# ------------------------------------------------------ 8-state composition

@dataclass(frozen=True)
class Rsp8BobOutput:
    state: StateVector
    u: Angle8
    t: int


def merge_state(q_full: StateVector, q_raw: StateVector, u: Angle8) -> StateVector:
    """The merge's state before its measurement: Rz(u*pi/4) on the first
    held qubit, then CZ with the second."""
    st = qsim.apply_gate(qsim.tensor(q_full, q_raw), ("RZ", u), 0)
    return qsim.apply_gate(st, "CZ", (0, 1))


def bob_merge(q_full: StateVector, q_raw: StateVector,
              coins: CoinSource) -> tuple[StateVector, Angle8, int]:
    """Merge the two held qubits into one |+_theta>; returns (state, u, t)."""
    u = Angle8(coins.bits(3))
    t, st = qsim.measure(merge_state(q_full, q_raw, u), 1, Angle8(2), coins)
    return st, u, t


def alice_merge_theta(first: RspAliceOutput, second: RspAliceOutput,
                      u: Angle8, t: int) -> Angle8:
    alpha = first.theta
    if second.theta2 == 0:
        return alpha + u + Angle8(4 * second.theta1)
    sign = 1 if (second.theta1 ^ t) == 0 else -1
    return Angle8(int(alpha) + int(u) + 2 * sign)


def rsp8_local(kp: TrapdoorKeypair, kp2: TrapdoorKeypair, coins: CoinSource,
               backend=rsp_bob_quantum) -> tuple[Angle8, Rsp8BobOutput]:
    """Both roles in one process: two 4-state runs plus the merge."""
    run1 = backend(kp.public, coins.child("run1"))
    run2 = backend(kp2.public, coins.child("run2"), raw=True)
    first = rsp_alice_decode(kp, run1.y, run1.w_meas)
    second = rsp_alice_decode(kp2, run2.y, run2.w_meas)
    state, u, t = bob_merge(run1.state, run2.state, coins.child("merge"))
    theta = alice_merge_theta(first, second, u, t)
    return theta, Rsp8BobOutput(state, u, t)
