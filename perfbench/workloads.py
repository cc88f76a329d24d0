"""The benchmark's workloads: seeded operation lists and their oracles.

Each workload is one closed-loop client.  A run is a sequence of passes;
pass ``i`` is a fixed list of operations whose inputs derive only from the
workload seed and ``i``, so the same seed replays the same operations.
Every operation calls the public ``q2pc`` API with all of its arguments
spelled out, so a later change to a default cannot silently change the
work measured, and every output is compared with an oracle that does not
share the code path under test.

Why these two workloads (see README.md for the metric mapping):

* ``oqfe`` -- one fresh key per session, so lattice key generation and
  its census dominate; this is where a lattice change shows.  Each pass
  also runs three compiled proofs of quantum knowledge (no lattice keys),
  so the compilers layer is measured too.
* ``exact`` -- keys chosen by hardcore bit, and dense branch enumeration
  everywhere; a lattice change should leave it
  unchanged, a simulator change moves it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from q2pc import compilers, harness, lattice, mbqc, protocols, qsim, rsp, zk
from q2pc.primitives import coin_source, sha256
from q2pc.profiles import get_profile
from q2pc.qsim import Angle8

PROFILE = "tiny"
TV_TOLERANCE = 1e-9
VALIDATE_POINTS = 1
PATTERNS_PER_SHAPE = 4


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` judges its output."""
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def session_seed(tag: str, *parts) -> bytes:
    text = "|".join(str(p) for p in (tag,) + parts)
    return sha256(b"perfbench|" + text.encode("utf-8"))


def warmup_seed(workload: str) -> bytes:
    # a different prefix from session_seed, so never one of the timed seeds
    return sha256(b"perfbench-warmup|" + workload.encode("utf-8"))


def _product(state: qsim.StateVector, width: int) -> qsim.StateVector:
    out = state
    for _ in range(width - 1):
        out = qsim.tensor(out, state)
    return out


# ------------------------------------------------------------------ oqfe

# (name, input state factory, b, ideal s_b): each pair's ideal output is
# deterministic, M_Z[Rx(-b pi/2) psi] is a basis state.
OQFE_CASES = (
    ("zero", lambda: qsim.basis_state(1, 0), 0, 0),
    ("one", lambda: qsim.basis_state(1, 1), 0, 1),
    ("iplus", lambda: qsim.plus_state(Angle8(2)), 1, 1),
)
OQFE_PASS = 12   # every (case, mode) pair twice
ZKPOQK_WITNESS, ZKPOQK_BITS, ZKPOQK_ROUNDS = 11, 4, 6
ZKPOQK_DEVIATIONS = (None, "wrong-key", "random-encryptions")


def _oqfe_op(case, mode: str, seed: bytes, params) -> Op:
    name, make_psi, b, ideal = case
    psi = make_psi()

    def run():
        alice, _bob, _a_ep, _b_ep = protocols.oqfe_run(
            b, psi, params, seed, mode, rsp.rsp_bob_quantum, zk.ZkAuthority())
        return alice.s_b

    return Op(f"oqfe-{mode}-{name}", run, lambda s_b: s_b == ideal)


def _zkpoqk_op(deviation, seed: bytes) -> Op:
    def run():
        session, _p_ep, _v_ep = compilers.zkpoqk_run(
            ZKPOQK_WITNESS, ZKPOQK_BITS, seed, ZKPOQK_ROUNDS, deviation, zk.ZkAuthority())
        return session

    if deviation is None:
        check = lambda s: s.accepted is True and compilers.zkpoqk_extract(s) == ZKPOQK_WITNESS
    else:
        check = lambda s: s.accepted is False and s.phase == "consistency"
    return Op(f"zkpoqk-{deviation or 'honest'}", run, check)


def oqfe_ops(seed: int, pass_index: int, cases=OQFE_CASES) -> list[Op]:
    """12 OQFE sessions, then three compiled proofs of quantum knowledge,
    honest and under both scripted deviations: the compilers layer without
    lattice keys, so its cost does not depend on the seed."""
    params = get_profile(PROFILE).params
    ops = []
    for k in range(OQFE_PASS):
        mode = "sh" if k % 2 == 0 else "mal"
        ops.append(_oqfe_op(cases[k % len(cases)], mode,
                            session_seed("oqfe", seed, pass_index, k), params))
    ops += [_zkpoqk_op(dev, session_seed("zkpoqk", seed, pass_index, dev))
            for dev in ZKPOQK_DEVIATIONS]
    return ops


def oqfe_warmup() -> list[Op]:
    params = get_profile(PROFILE).params
    return [_oqfe_op(OQFE_CASES[0], "sh", warmup_seed("oqfe"), params)]


# ----------------------------------------------------------------- exact

EXACT_SHAPES = ((2, 5), (3, 4), (2, 6))


def _is_two_regular(pk: lattice.PublicKey) -> bool:
    """Census written apart from the package: every image point of f_k has
    exactly two preimages."""
    p = pk.params
    S = np.array(list(itertools.product(range(p.q), repeat=p.n)), dtype=np.int64)
    E = np.array(list(itertools.product(range(-p.sigma, p.sigma + 1), repeat=p.m)),
                 dtype=np.int64)
    half = np.zeros(p.m, dtype=np.int64)
    half[0] = p.q // 2
    shifts = np.array([c * pk.y0 + d * half for c in (0, 1) for d in (0, 1)])
    images = ((S @ pk.K.T)[:, None, None, :] + E[None, :, None, :]
              + shifts[None, None, :, :]) % p.q
    codes = images.reshape(-1, p.m) @ (p.q ** np.arange(p.m, dtype=np.int64))
    _, counts = np.unique(codes, return_counts=True)
    return bool(np.all(counts == 2))


def key_hardcore_bit(key_seed: bytes) -> int:
    """d0 of the key ``lattice.gen_regular`` accepts from these coins: the
    same draws through the public ``gen``, checked by the census above,
    so the package's census cache is left untouched."""
    params = get_profile(PROFILE).params
    coins = coin_source(key_seed, "gen")
    for _ in range(64):
        kp = lattice.gen(params, coins)
        if _is_two_regular(kp.public):
            return kp.d0
    raise ValueError("no 2-regular key within the retry budget")


def stratum_key_seed(seed: int, pass_index: int, d0: int) -> bytes:
    """The first seed-drawn key whose hardcore bit is d0."""
    for attempt in itertools.count():
        key_seed = session_seed("exact-key", seed, pass_index, d0, attempt)
        if key_hardcore_bit(key_seed) == d0:
            return key_seed


def random_brickwork(rng: random.Random, n: int, m: int) -> mbqc.BrickworkPattern:
    """Random angles on columns 1..m-1; bridges brickwork-style, at rows of
    one parity per column, so no qubit has two bridge partners."""
    phi = tuple(tuple(Angle8(0 if j == 0 else rng.randrange(8)) for j in range(m))
                for _ in range(n))
    bridges = tuple((i, j) for j in range(1, m) for i in range(j % 2, n - 1, 2)
                    if rng.random() < 0.5)
    return mbqc.BrickworkPattern(n, m, phi, bridges)


def _law_op(kind: str, compute, pattern, psi) -> Op:
    def run():
        return harness.tv_distance(compute(), mbqc.circuit_model_law(pattern, psi))
    return Op(kind, run, lambda tv: tv <= TV_TOLERANCE)


def _mbqc_ops(rng: random.Random, shape) -> list[Op]:
    n, m = shape
    pattern = random_brickwork(rng, n, m)
    psi = _product(qsim.plus_state(), n)
    sites = [(i, j) for j in range(1, m) for i in range(n)]
    thetas = {s: Angle8(rng.randrange(8)) for s in sites}
    masks = {s: rng.randrange(2) for s in sites}
    tag = f"{n}x{m}"
    return [
        _law_op(f"mbqc-reference-{tag}",
                lambda: mbqc.reference_evaluate(pattern, psi), pattern, psi),
        _law_op(f"blinded-law-{tag}",
                lambda: harness.q2pc_blinded_law_exact(pattern, psi, thetas, masks),
                pattern, psi),
    ]


def _simulator_op(key_seeds: dict[int, bytes]) -> Op:
    """simulator_tv_experiment for b in {0,1}, both variants, on a key of
    each hardcore bit d0."""
    psi = qsim.plus_state()
    cases = [(d0, b, variant) for d0 in sorted(key_seeds) for b in (0, 1)
             for variant in ("corrected", "literal")]
    # The literal textbook simulator misses the parity half-space of w when
    # the two hardcore bits agree (d0 = 0); on |+> its free b=0 coins happen
    # to match, so with d0 = 1 it is exact.
    expected = [variant == "corrected" or d0 == 1 for d0, _b, variant in cases]
    return Op("simulator-tv",
              lambda: [harness.simulator_tv_experiment(psi, b, key_seeds[d0], PROFILE,
                                                       variant).passed
                       for d0, b, variant in cases],
              lambda passed: passed == expected)


def exact_ops(seed: int, pass_index: int) -> list[Op]:
    """Keys of both hardcore bits, so the literal simulator's gap is checked
    both where it must show and where it must not.  Backend equivalence
    runs on a d0 = 1 key only: with d0 = 0 half of the w outcomes are
    impossible, which halves the dense enumeration but doubles the analytic
    law's cost and its run-to-run spread, and a seed-drawn mix of the two
    made the pass time swing between two levels.  PATTERNS_PER_SHAPE random
    patterns of each shape keep the backend-equivalence check, the
    costliest, at one session in 26, so the tail session (ten beyond it)
    stays among the MBQC laws while a run holds at most ten passes."""
    beq_key = stratum_key_seed(seed, pass_index, 1)
    ops = [Op("backend-eq",
              lambda: harness.backend_equivalence_experiment(
                  PROFILE, None, session_seed("exact-beq", seed, pass_index),
                  beq_key, VALIDATE_POINTS),
              lambda r: r.passed is True),
           _simulator_op({0: stratum_key_seed(seed, pass_index, 0), 1: beq_key})]
    rng = random.Random(session_seed("exact-rng", seed, pass_index))
    for shape in EXACT_SHAPES:
        for _ in range(PATTERNS_PER_SHAPE):
            ops += _mbqc_ops(rng, shape)
    return ops


def exact_warmup() -> list[Op]:
    rng = random.Random(warmup_seed("exact"))
    psi = qsim.plus_state()
    sim = Op("simulator-tv-corrected-b0",
             lambda: harness.simulator_tv_experiment(psi, 0, warmup_seed("exact"),
                                                     PROFILE, "corrected"),
             lambda r: r.passed is True)
    return [sim] + _mbqc_ops(rng, EXACT_SHAPES[0])


# name -> (pass builder, warm-up builder)
WORKLOADS = {
    "oqfe": (oqfe_ops, oqfe_warmup),
    "exact": (exact_ops, exact_warmup),
}
