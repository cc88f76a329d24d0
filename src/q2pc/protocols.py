"""The interactive protocols as dual party functions over the channel:
semi-honest OQFE, malicious-Alice OQFE and general blind two-party
computation.

OQFE: classical Alice with bit b learns s_b = M_Z[Rx(-b*pi/2) |psi_in>] on
quantum Bob's input qubit, hiding b.  Alice drives RSP so Bob holds |+_theta>
with theta2 hidden, then sends the blind angle

    delta = 2*((b + theta2 + 2*r_A) mod 4)   (Angle8 units of pi/4)

and decodes s_b = s_bar ^ theta1 ^ r_A ^ (m0 & b) from Bob's report.  Bob's
circuit is the 3-qubit chain psi_in -- |+_theta> -- |+> entangled by CZs:
measure qubit 0 in X (m0), qubit 1 at delta (m1, never sent), correct the
output qubit by X^m1 Z^m0, Z-measure (s_bar).

The malicious-Alice variant forces the RSP key through a shared coin toss:
Alice commits her coin share, learns Bob's, derives the keypair from both
(lattice.gen_from_shares), and proves in zero knowledge that the published
key matches.  The blind-computation protocol does the same for each of its
keys, runs one 8-state RSP per non-input pattern site, then the
column-major measurement loop where every delta (mbqc.flow_bits and
mbqc.blind_delta over Alice's outcome history) is preceded by an accepted
blind-angle proof; Bob aborts before measuring on any rejected proof.

Abort taxonomy: every ProtocolAbort carries (phase, site, cause) so tests
can assert exact abort points.  A malformed peer value aborts in the
phase that reads it: coin shares or a q2pc commitment ("setup"), key or
token lists ("keygen-proof"), an RSP or merge report ("rsp"), a delta, a
result or a site outcome ("measurement" or "input-column").  Any value
but the statement's proof token is a rejected proof.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import channel, lattice, mbqc, qsim, rsp, zk
from .channel import Endpoint, canonical_encode
from .lattice import LatticeParams, TrapdoorKeypair
from .mbqc import BrickworkPattern
from .primitives import CoinSource, coin_source, commit
from .qsim import Angle8, StateVector


class ProtocolError(Exception):
    pass


class ProtocolAbort(ProtocolError):
    def __init__(self, phase: str, site, cause: str):
        super().__init__(f"abort during {phase} at {site}: {cause}")
        self.phase = phase
        self.site = site
        self.cause = cause


def _is_seq(value, length: int | None = None, item_type: type | None = None) -> bool:
    """A peer's list (a tuple once decoded) of length items, each exactly
    of item_type (so no bool passes for an int); None checks nothing."""
    return (isinstance(value, (list, tuple))
            and (length is None or len(value) == length)
            and (item_type is None or all(type(v) is item_type for v in value)))


# ------------------------------------------------------------ OQFE pieces

def oqfe_delta(b: int, theta2: int, r_a: int) -> Angle8:
    """delta = phi_b + theta2*pi/2 + r_A*pi, phi_b = b*pi/2."""
    return mbqc.blind_delta(2 * b, 0, 0, 2 * theta2, r_a)


def oqfe_decode(b: int, theta1: int, r_a: int, m0: int, s_bar: int) -> int:
    return s_bar ^ theta1 ^ r_a ^ (m0 & b)


def oqfe_bob_state(psi_in: StateVector, psi_a: StateVector) -> StateVector:
    """psi_in (qubit 0), Alice's RSP qubit (1), fresh |+> output (2), CZ
    chain: the graph state of a 1 x 3 pattern (mbqc.entangled_graph_state)."""
    chain = BrickworkPattern(1, 3, ((0, 0, 0),))
    return mbqc.entangled_graph_state(
        chain, psi_in, {(0, 1): psi_a, (0, 2): qsim.plus_state()})


def oqfe_bob_branches(psi_in: StateVector, rows) -> np.ndarray:
    """Exact law of Bob's measurements for each (psi_a, delta) row, every
    row's state oqfe_bob_state(psi_in, psi_a) and all rows walked at once:
    probabilities indexed by [row, m0, m1, s_bar], 0.0 on forbidden
    branches.  The output qubit is Z-measured raw: X^m1 flips that outcome
    and Z^m0 leaves it alone, so s_bar = z ^ m1."""
    amps = np.stack([oqfe_bob_state(psi_in, psi_a).amplitudes for psi_a, _ in rows])
    deltas = np.array([int(delta) for _, delta in rows])
    # each history starts as its row index, so a branch's row is its high bits
    history = np.arange(len(rows))
    amps, history = qsim.split_branches(amps, history, 0, Angle8(0))
    amps, history = qsim.split_branches(amps, history, 0, deltas[history >> 1])
    amps, history = qsim.split_branches(amps, history, 0, "Z")
    law = np.zeros((len(rows), 2, 2, 2))
    law.reshape(-1)[history] = (amps.real ** 2 + amps.imag ** 2).sum(axis=1)
    law[:, :, 1] = law[:, :, 1, ::-1].copy()   # z -> s_bar where m1 = 1
    return law


def oqfe_bob_measure(psi_in: StateVector, psi_a: StateVector, delta: Angle8,
                     coins: CoinSource) -> tuple[int, int]:
    """Sampled run of Bob's circuit; returns (m0, s_bar); m1 stays local."""
    st = oqfe_bob_state(psi_in, psi_a)
    m0, st = qsim.measure(st, 0, Angle8(0), coins)
    m1, st = qsim.measure(st, 0, Angle8(delta), coins)
    if m1:
        st = qsim.apply_gate(st, "X", 0)
    if m0:
        st = qsim.apply_gate(st, "Z", 0)
    s_bar, _ = qsim.measure(st, 0, "Z", coins)
    return m0, s_bar


@dataclass
class OqfeAliceView:
    b: int
    r_a: int = 0
    theta1: int = 0
    theta2: int = 0
    delta: Angle8 = Angle8(0)
    y: tuple = ()
    w_meas: tuple = ()
    m0: int = 0
    s_bar: int = 0
    s_b: int = 0


@dataclass
class OqfeBobView:
    y: tuple = ()
    w_meas: tuple = ()
    delta: Angle8 = Angle8(0)
    m0: int = 0
    s_bar: int = 0
    com_f: bytes = b""
    r_f_bob: bytes = b""
    pk_bytes: bytes = b""
    keygen_session: object = None


# ------------------------------------------------- OQFE after key generation

def _expect_rsp_report(ep: Endpoint, kp: TrapdoorKeypair, site):
    """Bob's rsp.meas report, a (y, w) pair, and Alice's decoding of it
    under kp; returns (report, decoded).  rsp_alice_decode checks y and w."""
    report = ep.expect("rsp.meas").value()
    if not _is_seq(report, 2):
        raise ProtocolAbort("rsp", site, "measurement report is not a (y, w) pair")
    try:
        return report, rsp.rsp_alice_decode(kp, *report)
    except rsp.RspAbort as exc:
        raise ProtocolAbort("rsp", site, str(exc)) from exc


def _oqfe_alice_steps(ep: Endpoint, b: int, kp: TrapdoorKeypair,
                      coins: CoinSource) -> OqfeAliceView:
    """Alice once Bob holds her key: decode his RSP report, mask, send
    delta, decode his result."""
    view = OqfeAliceView(b=b)
    (y, w), dec = _expect_rsp_report(ep, kp, None)
    view.y, view.w_meas = tuple(y), tuple(w)
    view.theta1, view.theta2 = dec.theta1, dec.theta2
    view.r_a = coins.child("mask").bit()
    view.delta = oqfe_delta(b, dec.theta2, view.r_a)
    ep.send("oqfe.delta", int(view.delta))
    result = ep.expect("oqfe.result").value()
    if not rsp._ints_below(result, 2, 2):
        raise ProtocolAbort("measurement", None, "result is not two bits")
    view.m0, view.s_bar = result
    view.s_b = oqfe_decode(b, dec.theta1, view.r_a, view.m0, view.s_bar)
    return view


def _oqfe_bob_steps(ep: Endpoint, view: OqfeBobView, pk: lattice.PublicKey,
                    psi_in: StateVector, coins: CoinSource,
                    backend) -> OqfeBobView:
    """Bob once he holds Alice's key: RSP, report, measure at delta, report."""
    out = backend(pk, coins.child("rsp"))
    view.y, view.w_meas = out.y, out.w_meas
    ep.send("rsp.meas", (list(out.y), list(out.w_meas)))
    delta = ep.expect("oqfe.delta").value()
    if type(delta) is not int or delta not in range(0, 8, 2):
        raise ProtocolAbort("measurement", None, "delta is not an even Angle8")
    view.delta = Angle8(delta)
    view.m0, view.s_bar = oqfe_bob_measure(psi_in, out.state, view.delta,
                                           coins.child("meas"))
    ep.send("oqfe.result", (view.m0, view.s_bar))
    return view


# --------------------------------------------------------- OQFE semi-honest

def oqfe_sh_alice(ep: Endpoint, b: int, params: LatticeParams,
                  coins: CoinSource) -> OqfeAliceView:
    kp = lattice.gen_regular(params, coins.child("gen"))
    ep.send("rsp.key", kp.public.to_bytes())
    return _oqfe_alice_steps(ep, b, kp, coins)


def oqfe_sh_bob(ep: Endpoint, psi_in: StateVector, params: LatticeParams,
                coins: CoinSource, backend=rsp.rsp_bob_quantum) -> OqfeBobView:
    try:
        pk = lattice.PublicKey.from_bytes(params, ep.expect("rsp.key").value())
    except lattice.LatticeError:
        raise ProtocolAbort("rsp", None, "malformed public key") from None
    return _oqfe_bob_steps(ep, OqfeBobView(), pk, psi_in, coins, backend)


# ------------------------------------------------------ OQFE malicious-Alice
# The key comes from a coin toss: Alice commits her share, learns Bob's,
# derives the keypair from both shares and proves that derivation.  The two
# halves of her side are separate so scripted cheats can deviate between.

def _verify_keygen(params: LatticeParams, auth: zk.ZkAuthority,
                   statement: tuple, token, site) -> zk.ZkSession:
    """Bob's check of one key-generation proof; aborts on rejection."""
    session = zk.ZkSession(zk.rel_keygen(params), statement, auth)
    if zk.verify(session, token) != "accept":
        raise ProtocolAbort("keygen-proof", site, "key generation proof rejected")
    return session


def _alice_coin_toss(ep: Endpoint, coins: CoinSource):
    """Commit to Alice's coin share and learn Bob's; returns
    (share, com_f, dec_f, bob_share)."""
    r_f_a = coins.child("coinshare").take_bytes(32)
    com_f, dec_f = commit(r_f_a, coins.child("comf"))
    ep.send("q2pc.commit", com_f)
    r_f_b = ep.expect("q2pc.coin").value()
    _check_coin_shares([r_f_b], 1)
    return r_f_a, com_f, dec_f, r_f_b


def _alice_publish_key(ep: Endpoint, params: LatticeParams,
                       auth: zk.ZkAuthority, com_f: bytes, r_f_b: bytes,
                       kp: TrapdoorKeypair, witness) -> None:
    """Send the public key with a key-generation proof for witness."""
    pk_bytes = kp.public.to_bytes()
    token = zk.prove(zk.rel_keygen(params), (com_f, r_f_b, pk_bytes), witness, auth)
    ep.send("rsp.key", pk_bytes)
    ep.send("zk.token", token)


def oqfe_mal_alice(ep: Endpoint, b: int, params: LatticeParams,
                   coins: CoinSource, authority: zk.ZkAuthority) -> OqfeAliceView:
    r_f_a, com_f, dec_f, r_f_b = _alice_coin_toss(ep, coins)
    kp = lattice.gen_from_shares(params, r_f_a, r_f_b)
    _alice_publish_key(ep, params, authority, com_f, r_f_b, kp, (r_f_a, dec_f))
    return _oqfe_alice_steps(ep, b, kp, coins)


def oqfe_mal_bob(ep: Endpoint, psi_in: StateVector, params: LatticeParams,
                 coins: CoinSource, backend,
                 authority: zk.ZkAuthority) -> OqfeBobView:
    view = OqfeBobView()
    view.com_f = ep.expect("q2pc.commit").value()
    view.r_f_bob = coins.child("coinshare").take_bytes(32)
    ep.send("q2pc.coin", view.r_f_bob)
    view.pk_bytes = ep.expect("rsp.key").value()
    token = ep.expect("zk.token").value()
    view.keygen_session = _verify_keygen(
        params, authority, (view.com_f, view.r_f_bob, view.pk_bytes), token, None)
    pk = lattice.PublicKey.from_bytes(params, view.pk_bytes)
    return _oqfe_bob_steps(ep, view, pk, psi_in, coins, backend)


# ---------------------------------------------------------------- Q2PC

def _rsp_sites(pattern: BrickworkPattern):
    return [(i, j) for j in range(1, pattern.m) for i in range(pattern.n)]


@dataclass
class Q2pcAliceResult:
    output: tuple
    thetas: dict = field(default_factory=dict)
    r_mask: dict = field(default_factory=dict)


# Bob's q2pc.outcome reports are (tag, i, j, *values), one int (never a
# bool) below each bound: the outcome of a measured site, or a merge's (u, t)
_OUTCOMES = {"site": ("outcome", (2,), "a bit"),
             "merge": ("merge report", (8, 2), "an angle and a bit")}


def _expect_outcome(ep: Endpoint, phase: str, site, tag: str = "site") -> list:
    """The values of Bob's next q2pc.outcome report, which must name site,
    the one due next."""
    noun, bounds, kind = _OUTCOMES[tag]
    value = ep.expect("q2pc.outcome").value()
    if _is_seq(value) and tuple(value[:3]) != (tag, *site):
        raise ProtocolAbort(phase, site, f"{noun} out of order")
    if not (_is_seq(value, 3 + len(bounds)) and all(
            type(v) is int and 0 <= v < bound for v, bound in zip(value[3:], bounds))):
        raise ProtocolAbort(phase, site, f"{noun} is not {kind}")
    return value[3:]


def _check_coin_shares(shares, count: int) -> None:
    """Bob's coin shares: a list of count 32-byte strings."""
    if not (_is_seq(shares, count, bytes) and all(len(r) == 32 for r in shares)):
        raise ProtocolAbort("setup", None, f"coin shares are not {count} x 32 bytes")


def q2pc_alice(ep: Endpoint, pattern: BrickworkPattern, params: LatticeParams,
               coins: CoinSource, authority: zk.ZkAuthority) -> Q2pcAliceResult:
    sites = _rsp_sites(pattern)
    com_phi, dec_phi = {}, {}
    shares, com_f, dec_f = {}, {}, {}
    ccoins = coins.child("commitments")
    for s in sites:
        com_phi[s], dec_phi[s] = commit(
            canonical_encode(int(pattern.phi[s[0]][s[1]])), ccoins)
        for run in (0, 1):
            shares[s, run] = ccoins.take_bytes(32)
            com_f[s, run], dec_f[s, run] = commit(shares[s, run], ccoins)
    skeleton = (pattern.n, pattern.m,
                [list(b) for b in pattern.bridges], pattern.input_rows)
    ep.send("q2pc.commit",
            (skeleton,
             [com_phi[s] for s in sites],
             [com_f[s, run] for s in sites for run in (0, 1)]))
    bob_shares = ep.expect("q2pc.coin").value()
    _check_coin_shares(bob_shares, 2 * len(sites))
    kps: dict[tuple, TrapdoorKeypair] = {}
    tokens = []
    for idx, (s, run) in enumerate(((s, r) for s in sites for r in (0, 1))):
        kps[s, run] = lattice.gen_from_shares(params, shares[s, run],
                                              bob_shares[idx])
        statement = (com_f[s, run], bob_shares[idx], kps[s, run].public.to_bytes())
        tokens.append(zk.prove(zk.rel_keygen(params), statement,
                               (shares[s, run], dec_f[s, run]), authority))
    ep.send("rsp.key", [kps[s, run].public.to_bytes()
                        for s in sites for run in (0, 1)])
    ep.send("zk.token", tokens)

    result = Q2pcAliceResult(output=())
    rcoins = coins.child("masks")
    for s in sites:
        result.r_mask[s] = rcoins.bit()
    for s in sites:
        _, first = _expect_rsp_report(ep, kps[s, 0], s)
        _, second = _expect_rsp_report(ep, kps[s, 1], s)
        u, t = _expect_outcome(ep, "rsp", s, "merge")
        result.thetas[s] = rsp.alice_merge_theta(first, second, Angle8(u), t)

    # corrected outcomes so far, one bit per site in measurement order,
    # the latest site in the lowest bit (the mbqc.flow_bits layout)
    s_bar = 0
    for i in range(pattern.n):
        s_bar = (s_bar << 1) | _expect_outcome(ep, "input-column", (i, 0))[0]

    rel_d = zk.rel_delta()
    for k, s in enumerate(sites, start=pattern.n):
        i, j = s
        sX, sZ = mbqc.flow_bits(pattern, k, s_bar)
        phi = pattern.phi[i][j]
        r = result.r_mask[s]
        delta = mbqc.blind_delta(phi, sX, sZ, result.thetas[s], r)
        statement = (int(delta), sZ, sX, com_phi[s])
        witness = (int(phi), dec_phi[s], int(result.thetas[s]), r)
        ep.send("zk.token", zk.prove(rel_d, statement, witness, authority))
        ep.send("q2pc.delta", (i, j, int(delta), sX, sZ))
        s_bar = (s_bar << 1) | (_expect_outcome(ep, "measurement", s)[0] ^ r)
    result.output = mbqc.output_bits(pattern.n, s_bar)
    return result


@dataclass
class Q2pcBobResult:
    raw_outcomes: dict = field(default_factory=dict)
    aborted: bool = False


def q2pc_bob(ep: Endpoint, psi_in: StateVector, params: LatticeParams,
             coins: CoinSource, backend,
             authority: zk.ZkAuthority) -> Q2pcBobResult:
    commitments = ep.expect("q2pc.commit").value()
    if not (_is_seq(commitments, 3) and _is_seq(commitments[0], 4)):
        raise ProtocolAbort("setup", None, "commitment is not (skeleton, com_phi, com_f)")
    (n, m, bridges, input_rows), com_phi_list, com_f_list = commitments
    if not (_is_seq((n, m, input_rows), 3, int) and _is_seq(bridges)
            and all(_is_seq(b, 2, int) for b in bridges)):
        raise ProtocolAbort("setup", None, "skeleton is not integers and bridge pairs")
    # fail on a skeleton Bob cannot build before any proof check or RSP run
    mbqc._check_graph(n, m, psi_in.num_qubits)
    shape = BrickworkPattern(n, m, ((Angle8(0),) * m,) * n, bridges, input_rows)
    sites = _rsp_sites(shape)
    if not (_is_seq(com_phi_list, len(sites)) and _is_seq(com_f_list, 2 * len(sites))):
        raise ProtocolAbort("setup", None, "commitment count mismatch")
    com_phi = dict(zip(sites, com_phi_list))
    bob_shares = [coins.child(f"coin/{k}").take_bytes(32)
                  for k in range(2 * len(sites))]
    ep.send("q2pc.coin", bob_shares)
    pk_list = ep.expect("rsp.key").value()
    tokens = ep.expect("zk.token").value()
    if not (_is_seq(pk_list, 2 * len(sites)) and _is_seq(tokens, 2 * len(sites))):
        raise ProtocolAbort("keygen-proof", None, "key or token count mismatch")
    for idx, (s, run) in enumerate(((s, r) for s in sites for r in (0, 1))):
        _verify_keygen(params, authority,
                       (com_f_list[idx], bob_shares[idx], pk_list[idx]),
                       tokens[idx], s)

    merged: list[StateVector] = []
    for idx, s in enumerate(sites):
        pk1 = lattice.PublicKey.from_bytes(params, pk_list[2 * idx])
        pk2 = lattice.PublicKey.from_bytes(params, pk_list[2 * idx + 1])
        scoins = coins.child(f"rsp/{s[0]}/{s[1]}")
        run1 = backend(pk1, scoins.child("run1"))
        run2 = backend(pk2, scoins.child("run2"), raw=True)
        ep.send("rsp.meas", (list(run1.y), list(run1.w_meas)))
        ep.send("rsp.meas", (list(run2.y), list(run2.w_meas)))
        state, u, t = rsp.bob_merge(run1.state, run2.state, scoins.child("merge"))
        ep.send("q2pc.outcome", ("merge", s[0], s[1], int(u), t))
        merged.append(state)

    state = mbqc.entangled_graph_state(shape, psi_in, dict(zip(sites, merged)))

    mcoins = coins.child("measure")
    result = Q2pcBobResult()
    for i in range(n):
        bit, state = qsim.measure(state, 0, Angle8(0), mcoins)
        result.raw_outcomes[(i, 0)] = bit
        ep.send("q2pc.outcome", ("site", i, 0, bit))

    rel_d = zk.rel_delta()
    for s in sites:
        token = ep.expect("zk.token").value()
        report = ep.expect("q2pc.delta").value()
        if not _is_seq(report, 5, int):
            raise ProtocolAbort("measurement", s, "delta report is not five integers")
        i, j, delta, sX, sZ = report
        if (i, j) != s:
            raise ProtocolAbort("measurement", s, "delta out of order")
        statement = (delta, sZ, sX, com_phi[s])
        if zk.verify(zk.ZkSession(rel_d, statement, authority), token) != "accept":
            # abort-before-leak: the site is never measured
            raise ProtocolAbort("measurement", s, "blind-angle proof rejected")
        bit, state = qsim.measure(state, 0, Angle8(delta), mcoins)
        result.raw_outcomes[s] = bit
        ep.send("q2pc.outcome", ("site", i, j, bit))
    return result


# ------------------------------------------------------------ thread driver

def seeded_session(seed: bytes, alice: str = "alice", bob: str = "bob"):
    """The one way a seed becomes a two-party run: (session id, the first
    party's coins, the second party's coins), each coin stream named."""
    return (coin_source(seed, "session").take_bytes(16),
            coin_source(seed, alice), coin_source(seed, bob))


def run_pair(alice_fn, bob_fn, session_id: bytes):
    """Run the two party functions over an in-process channel, Bob on a
    worker thread; returns (alice_result, bob_result, alice_ep, bob_ep).
    A ProtocolAbort on either side is re-raised in the caller.  Alice's end
    is closed once she returns, so Bob never outwaits her."""
    a_ep, b_ep = channel.inproc_pair(session_id)
    box: dict = {}

    def bob_wrapper():
        try:
            box["bob"] = bob_fn(b_ep)
        except BaseException as exc:  # surfaced after join
            box["bob_exc"] = exc
            b_ep.close()

    th = threading.Thread(target=bob_wrapper)
    th.start()
    try:
        alice_result = alice_fn(a_ep)
    except channel.PeerClosedError:
        alice_result = None
    except BaseException as exc:
        # fail closed: release Bob from any pending receive before leaving
        a_ep.close()
        th.join()
        # prefer Bob's own abort, but not the secondary peer-closed error
        # caused by Alice tearing the channel down
        if (isinstance(exc, ProtocolError)
                and isinstance(box.get("bob_exc"), ProtocolError)):
            raise box["bob_exc"]
        raise
    # Alice is done: a Bob still waiting for a message gets PeerClosedError
    # once every message she sent is read, instead of waiting forever
    a_ep.close()
    th.join()
    if "bob_exc" in box:
        raise box["bob_exc"]
    return alice_result, box["bob"], a_ep, b_ep


def oqfe_run(b: int, psi_in: StateVector, params: LatticeParams,
             seed: bytes, mode: str = "sh", backend=rsp.rsp_bob_quantum,
             authority: zk.ZkAuthority | None = None):
    """Single-process OQFE run; returns (alice view, bob view, endpoints)."""
    sid, acoins, bcoins = seeded_session(seed)
    if mode == "sh":
        alice = lambda ep: oqfe_sh_alice(ep, b, params, acoins)
        bob = lambda ep: oqfe_sh_bob(ep, psi_in, params, bcoins, backend)
    elif mode == "mal":
        auth = authority or zk.ZkAuthority()
        alice = lambda ep: oqfe_mal_alice(ep, b, params, acoins, auth)
        bob = lambda ep: oqfe_mal_bob(ep, psi_in, params, bcoins, backend, auth)
    else:
        raise ProtocolError(f"unknown mode {mode!r}")
    return run_pair(alice, bob, sid)


def q2pc_run(pattern: BrickworkPattern, psi_in: StateVector,
             params: LatticeParams, seed: bytes,
             backend=rsp.rsp_bob_quantum,
             authority: zk.ZkAuthority | None = None):
    sid, acoins, bcoins = seeded_session(seed)
    auth = authority or zk.ZkAuthority()
    alice = lambda ep: q2pc_alice(ep, pattern, params, acoins, auth)
    bob = lambda ep: q2pc_bob(ep, psi_in, params, bcoins, backend, auth)
    return run_pair(alice, bob, sid)
