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
have amplitude zero).

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

from dataclasses import dataclass

import numpy as np

from . import lattice, qsim
from .lattice import (LatticeParams, NotInImageError, Preimage, PublicKey,
                      TrapdoorKeypair, TwoRegularityError)
from .primitives import CoinSource
from .qsim import Angle8, StateVector, TwoTermState

_MAX_RESAMPLES = 10000


class RspError(Exception):
    pass


class RspAbort(RspError):
    """Dishonest or broken counterparty: undecodable y."""


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


def _pair_from_census(pk: PublicKey, y: tuple) -> tuple[Preimage, Preimage]:
    pre = lattice.image_census(pk).get(y, [])
    if len(pre) != 2:
        raise TwoRegularityError(len(pre))
    a, b = sorted(pre, key=lambda z: z.c)
    return a, b


def _sample_image_pair(pk: PublicKey, coins: CoinSource,
                       oracle: TrapdoorKeypair | None):
    """Uniform regular image point with both preimages; collisions counted.

    The sibling preimage comes from the trapdoor when an oracle is supplied
    (testing plumbing), else from the public key's image table (enumerable
    domains only)."""
    resamples = 0
    while True:
        z = sample_domain_point(pk.params, coins)
        y = tuple(int(v) for v in lattice.eval_f(pk, z))
        try:
            if oracle is not None:
                x, xp = lattice.invert(oracle, np.array(y, dtype=np.int64))
            else:
                x, xp = _pair_from_census(pk, y)
            return y, x, xp, resamples
        except TwoRegularityError:
            resamples += 1
            if resamples > _MAX_RESAMPLES:
                raise RspError("boundary collisions exhausted resample budget")


def _inner_parity(w_int: int, delta: int) -> int:
    return bin(w_int & delta).count("1") & 1


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
    looks y up in the public key's image table (lattice.image_census);
    enumerable domains only.  raw=True stops before the final H Rz(-pi/2)
    (8-state second run)."""
    p = pk.params
    y, x, xp, resamples = _sample_image_pair(pk, coins, None)
    W = p.preimage_bits
    if W + 1 > qsim.MAX_DENSE_QUBITS:
        raise RspError("preimage register exceeds dense budget")
    ex, exp_ = lattice.encode(p, x), lattice.encode(p, xp)
    two = TwoTermState(W + 1,
                       ex | (lattice.hardcore(x) << W),
                       exp_ | (lattice.hardcore(xp) << W), 1.0)
    state = qsim.two_term_to_dense(two)
    w = []
    for _ in range(W):
        # measured qubit is removed, so the register front stays at index 0
        bit, state = qsim.measure_in_plane(state, 0, Angle8(0), coins)
        w.append(bit)
    if not raw:
        state = _finish_rotation(state)
    return RspBobOutput(state, y, tuple(w), resamples)


def rsp_bob_shortcut(pk: PublicKey, coins: CoinSource, raw: bool = False,
                     oracle: TrapdoorKeypair | None = None) -> RspBobOutput:
    """Classical Bob stand-in: samples the honest transcript law and
    reconstructs the held qubit analytically from the preimage pair."""
    p = pk.params
    y, x, xp, resamples = _sample_image_pair(pk, coins, oracle)
    W = p.preimage_bits
    delta = lattice.encode(p, x) ^ lattice.encode(p, xp)
    hx, hxp = lattice.hardcore(x), lattice.hardcore(xp)
    w_int = coins.bits(W)
    if hx == hxp and _inner_parity(w_int, delta):
        # odd-parity outcomes are forbidden when the h values agree; folding
        # along one preimage-difference bit gives the uniform half-space law
        w_int ^= delta & -delta
    if hx ^ hxp:
        state = qsim.plus_state(Angle8(4 * _inner_parity(w_int, delta)))
    else:
        state = qsim.basis_state(1, hx)
    if not raw:
        state = _finish_rotation(state)
    return RspBobOutput(state, y, _w_tuple(w_int, W), resamples)


def rsp_alice_decode(kp: TrapdoorKeypair, y, w_meas) -> RspAliceOutput:
    try:
        x, xp = lattice.invert(kp, np.array(tuple(y), dtype=np.int64))
    except NotInImageError as exc:
        raise RspAbort(f"received y is undecodable: {exc}") from exc
    p = kp.params
    if len(w_meas) != p.preimage_bits:
        raise RspAbort("measurement string has wrong width")
    theta2 = lattice.hardcore(x) ^ lattice.hardcore(xp)
    delta = lattice.encode(p, x) ^ lattice.encode(p, xp)
    theta1 = ((theta2 & _inner_parity(w_int_of(w_meas), delta))
              ^ (lattice.hardcore(x) & lattice.hardcore(xp)))
    return RspAliceOutput(theta1, theta2)


# ------------------------------------------------- exact transcript laws

def w_law_for_pair(params: LatticeParams, x: Preimage, xp: Preimage) -> dict:
    """Exact conditional law of w given the image point, {w_int: prob}."""
    W = params.preimage_bits
    delta = lattice.encode(params, x) ^ lattice.encode(params, xp)
    if lattice.hardcore(x) ^ lattice.hardcore(xp):
        return {w: 1.0 / (1 << W) for w in range(1 << W)}
    return {w: 1.0 / (1 << (W - 1)) for w in range(1 << W)
            if _inner_parity(w, delta) == 0}


def w_law_dense(params: LatticeParams, x: Preimage, xp: Preimage) -> dict:
    """Oracle for w_law_for_pair: dense branch enumeration of the +/- basis
    measurements on the two-term state, {w_int: (prob, residual)}."""
    W = params.preimage_bits
    two = TwoTermState(W + 1,
                       lattice.encode(params, x) | (lattice.hardcore(x) << W),
                       lattice.encode(params, xp) | (lattice.hardcore(xp) << W),
                       1.0)
    plan = [(i, Angle8(0)) for i in range(W)]
    out = {}
    for br in qsim.enumerate_branches(qsim.two_term_to_dense(two), plan):
        if not br.impossible:
            out[w_int_of(br.outcomes)] = (br.probability, br.residual)
    return out


def transcript_law(pk: PublicKey) -> dict:
    """Exact honest-run law of the rsp.meas message, {(y, w_int): prob}.

    Per-image-point decomposition: y is uniform over the 2-regular part of
    the image, w follows w_law_for_pair.  Both backends sample exactly this
    law; enumerable domains only."""
    census = lattice.image_census(pk)
    regular = {y: pre for y, pre in census.items() if len(pre) == 2}
    law = {}
    py = 1.0 / len(regular)
    for y, pre in regular.items():
        x, xp = sorted(pre, key=lambda z: z.c)
        for w, p in w_law_for_pair(pk.params, x, xp).items():
            law[(y, w)] = py * p
    return law


# ------------------------------------------------------ 8-state composition

@dataclass(frozen=True)
class Rsp8BobOutput:
    state: StateVector
    u: Angle8
    t: int
    runs: tuple   # (RspBobOutput full, RspBobOutput raw)


def bob_merge(q_full: StateVector, q_raw: StateVector,
              coins: CoinSource) -> tuple[StateVector, Angle8, int]:
    """Merge the two held qubits into one |+_theta>; returns (state, u, t)."""
    u = Angle8(coins.bits(3))
    st = qsim.tensor(q_full, q_raw)
    st = qsim.apply_gate(st, ("RZ", u), 0)
    st = qsim.apply_gate(st, "CZ", (0, 1))
    t, st = qsim.measure_in_plane(st, 1, Angle8(2), coins)
    return st, u, t


def alice_merge_theta(first: RspAliceOutput, second: RspAliceOutput,
                      u: Angle8, t: int) -> Angle8:
    alpha = first.theta
    if second.theta2 == 0:
        return alpha + u + Angle8(4 * second.theta1)
    sign = 1 if (second.theta1 ^ t) == 0 else -1
    return Angle8(int(alpha) + int(u) + 2 * sign)


def rsp8_local(kp: TrapdoorKeypair, kp2: TrapdoorKeypair, coins: CoinSource,
               backend=rsp_bob_quantum, **backend_kwargs) -> tuple[Angle8, Rsp8BobOutput]:
    """Both roles in one process: two 4-state runs plus the merge."""
    run1 = backend(kp.public, coins.child("run1"), **backend_kwargs)
    run2 = backend(kp2.public, coins.child("run2"), raw=True, **backend_kwargs)
    first = rsp_alice_decode(kp, run1.y, run1.w_meas)
    second = rsp_alice_decode(kp2, run2.y, run2.w_meas)
    state, u, t = bob_merge(run1.state, run2.state, coins.child("merge"))
    theta = alice_merge_theta(first, second, u, t)
    return theta, Rsp8BobOutput(state, u, t, (run1, run2))
