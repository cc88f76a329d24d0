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
can assert exact abort points.  A malformed peer value aborts too: an
RSP report that is not a (y, w) pair of integers mod q and bits (phase
"rsp"), an OQFE delta that is not an even Angle8 in 0..7 or an OQFE
result that is not two bits (phase "measurement").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

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


def oqfe_bob_branches(psi_in: StateVector, psi_a: StateVector, delta: Angle8):
    """All (m0, m1, s_bar, prob) branches of Bob's measurements, exactly.
    The output qubit is Z-measured raw: X^m1 flips that outcome and Z^m0
    leaves it alone, so s_bar = z ^ m1."""
    plan = [(0, Angle8(0)), (1, Angle8(delta)), (2, "Z")]
    out = []
    for br in qsim.enumerate_branches(oqfe_bob_state(psi_in, psi_a), plan):
        m0, m1, z = br.outcomes
        out.append((m0, m1, z ^ m1, br.probability))
    return sorted(out)   # (m0, m1, s_bar) order


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

def _expect_rsp_report(ep: Endpoint, site) -> list:
    """Bob's rsp.meas report, a (y, w) pair; rsp_alice_decode checks each."""
    report = ep.expect("rsp.meas").value()
    if not (isinstance(report, (list, tuple)) and len(report) == 2):
        raise ProtocolAbort("rsp", site, "measurement report is not a (y, w) pair")
    return report


def _oqfe_alice_steps(ep: Endpoint, b: int, kp: TrapdoorKeypair,
                      coins: CoinSource) -> OqfeAliceView:
    """Alice once Bob holds her key: decode his RSP report, mask, send
    delta, decode his result."""
    view = OqfeAliceView(b=b)
    y, w = _expect_rsp_report(ep, None)
    try:
        dec = rsp.rsp_alice_decode(kp, y, w)
    except rsp.RspAbort as exc:
        raise ProtocolAbort("rsp", None, str(exc)) from exc
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

def _prove_keygen(params: LatticeParams, auth: zk.ZkAuthority,
                  statement: tuple, witness) -> bytes:
    """Alice's key-generation proof token for (com_f, r_f_bob, pk_bytes)."""
    session = zk.new_session(zk.rel_keygen(params), statement, "prover", auth)
    return zk.prove(session, witness)[0]


def _verify_keygen(params: LatticeParams, auth: zk.ZkAuthority,
                   statement: tuple, token, site) -> zk.ZkSession:
    """Bob's check of one key-generation proof; aborts on rejection."""
    session = zk.new_session(zk.rel_keygen(params), statement, "verifier", auth)
    if zk.verify(session, [token]) != "accept":
        raise ProtocolAbort("keygen-proof", site, "key generation proof rejected")
    return session


def _alice_coin_toss(ep: Endpoint, coins: CoinSource):
    """Commit to Alice's coin share and learn Bob's; returns
    (share, com_f, dec_f, bob_share)."""
    r_f_a = coins.child("coinshare").take_bytes(32)
    com_f, dec_f = commit(r_f_a, coins.child("comf"))
    ep.send("q2pc.commit", com_f)
    return r_f_a, com_f, dec_f, ep.expect("q2pc.coin").value()


def _alice_publish_key(ep: Endpoint, params: LatticeParams,
                       auth: zk.ZkAuthority, com_f: bytes, r_f_b: bytes,
                       kp: TrapdoorKeypair, witness) -> None:
    """Send the public key with a key-generation proof for witness."""
    pk_bytes = kp.public.to_bytes()
    token = _prove_keygen(params, auth, (com_f, r_f_b, pk_bytes), witness)
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


def _expect_outcome(ep: Endpoint, phase: str, site) -> int:
    """Bob's outcome bit for site, which must be the site measured next."""
    tag, i, j, bit = ep.expect("q2pc.outcome").value()
    if (tag, i, j) != ("site", *site):
        raise ProtocolAbort(phase, site, "outcome out of order")
    if bit not in (0, 1):
        raise ProtocolAbort(phase, site, "outcome is not a bit")
    return bit


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
    kps: dict[tuple, TrapdoorKeypair] = {}
    tokens = []
    for idx, (s, run) in enumerate(((s, r) for s in sites for r in (0, 1))):
        kps[s, run] = lattice.gen_from_shares(params, shares[s, run],
                                              bob_shares[idx])
        statement = (com_f[s, run], bob_shares[idx], kps[s, run].public.to_bytes())
        tokens.append(_prove_keygen(params, authority, statement,
                                    (shares[s, run], dec_f[s, run])))
    ep.send("rsp.key", [kps[s, run].public.to_bytes()
                        for s in sites for run in (0, 1)])
    ep.send("zk.token", tokens)

    result = Q2pcAliceResult(output=())
    rcoins = coins.child("masks")
    for s in sites:
        result.r_mask[s] = rcoins.bit()
    for s in sites:
        y1, w1 = _expect_rsp_report(ep, s)
        y2, w2 = _expect_rsp_report(ep, s)
        tag, i, j, u, t = ep.expect("q2pc.outcome").value()
        if (tag, i, j) != ("merge", s[0], s[1]):
            raise ProtocolAbort("rsp", s, "merge report out of order")
        try:
            first = rsp.rsp_alice_decode(kps[s, 0], y1, w1)
            second = rsp.rsp_alice_decode(kps[s, 1], y2, w2)
        except rsp.RspAbort as exc:
            raise ProtocolAbort("rsp", s, str(exc)) from exc
        result.thetas[s] = rsp.alice_merge_theta(first, second, Angle8(u), t)

    # corrected outcomes so far, one bit per site in measurement order,
    # the latest site in the lowest bit (the mbqc.flow_bits layout)
    s_bar = 0
    for i in range(pattern.n):
        s_bar = (s_bar << 1) | _expect_outcome(ep, "input-column", (i, 0))

    rel_d = zk.rel_delta()
    for k, s in enumerate(sites, start=pattern.n):
        i, j = s
        sX, sZ = mbqc.flow_bits(pattern, k, s_bar)
        phi = pattern.phi[i][j]
        r = result.r_mask[s]
        delta = mbqc.blind_delta(phi, sX, sZ, result.thetas[s], r)
        statement = (int(delta), sZ, sX, com_phi[s])
        token = zk.prove(zk.new_session(rel_d, statement, "prover", authority),
                         (int(phi), dec_phi[s], int(result.thetas[s]), r))[0]
        ep.send("zk.token", token)
        ep.send("q2pc.delta", (i, j, int(delta), sX, sZ))
        s_bar = (s_bar << 1) | (_expect_outcome(ep, "measurement", s) ^ r)
    result.output = mbqc.output_bits(pattern.n, s_bar)
    return result


@dataclass
class Q2pcBobResult:
    raw_outcomes: dict = field(default_factory=dict)
    aborted: bool = False


def q2pc_bob(ep: Endpoint, psi_in: StateVector, params: LatticeParams,
             coins: CoinSource, backend,
             authority: zk.ZkAuthority) -> Q2pcBobResult:
    skeleton, com_phi_list, com_f_list = ep.expect("q2pc.commit").value()
    n, m, bridges, input_rows = skeleton
    shape = BrickworkPattern(n, m, tuple(tuple(Angle8(0) for _ in range(m))
                                         for _ in range(n)),
                             tuple(tuple(b) for b in bridges), input_rows)
    # fail on a skeleton Bob cannot build before any proof check or RSP run
    mbqc._check_graph(shape, psi_in.num_qubits)
    sites = _rsp_sites(shape)
    if len(com_phi_list) != len(sites) or len(com_f_list) != 2 * len(sites):
        raise ProtocolAbort("setup", None, "commitment count mismatch")
    com_phi = dict(zip(sites, com_phi_list))
    bob_shares = [coins.child(f"coin/{k}").take_bytes(32)
                  for k in range(2 * len(sites))]
    ep.send("q2pc.coin", bob_shares)
    pk_list = ep.expect("rsp.key").value()
    tokens = ep.expect("zk.token").value()
    if len(pk_list) != 2 * len(sites) or len(tokens) != 2 * len(sites):
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
        i, j, delta, sX, sZ = ep.expect("q2pc.delta").value()
        if (i, j) != s:
            raise ProtocolAbort("measurement", s, "delta out of order")
        statement = (delta, sZ, sX, com_phi[s])
        session = zk.new_session(rel_d, statement, "verifier", authority)
        if zk.verify(session, [token]) != "accept":
            # abort-before-leak: the site is never measured
            raise ProtocolAbort("measurement", s, "blind-angle proof rejected")
        bit, state = qsim.measure(state, 0, Angle8(delta), mcoins)
        result.raw_outcomes[s] = bit
        ep.send("q2pc.outcome", ("site", i, j, bit))
    return result


# ------------------------------------------------------------ thread driver

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
    acoins = coin_source(seed, "alice")
    bcoins = coin_source(seed, "bob")
    sid = coin_source(seed, "session").take_bytes(16)
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
    acoins = coin_source(seed, "alice")
    bcoins = coin_source(seed, "bob")
    sid = coin_source(seed, "session").take_bytes(16)
    auth = authority or zk.ZkAuthority()
    alice = lambda ep: q2pc_alice(ep, pattern, params, acoins, auth)
    bob = lambda ep: q2pc_bob(ep, psi_in, params, bcoins, backend, auth)
    return run_pair(alice, bob, sid)
