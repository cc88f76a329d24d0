"""Simulators, extractors, and security experiments, runnable as adversarial
drivers against the protocol machinery, plus distribution-distance tooling.

Everything desk-scale is exact: the OQFE randomness space (theta bits, mask
bit, measurement branches) is small enough to enumerate with Born weights,
so distribution comparisons report exact total-variation distances, not
estimates, wherever the profile allows.  The numeric thresholds used by the
experiments are engineering tolerances for this artifact; the underlying
statements are asymptotic and are quoted in each report's notes field.

The semi-honest-Alice simulator ships in two variants.  The "literal"
variant follows the textbook pseudocode directly (uniform image point,
uniform measurement string, free outcome coin); at desk scale its view is
far from the real one because the measurement string is constrained to a
parity half-space whenever the two hardcore values agree, and because the
b=0 branch ignores the decode identity.  The "corrected" variant samples
the honest transcript law and wires the decode identity for both values of
b, achieving TV 0 exactly.  Both are kept: the experiment reports the gap
instead of hiding it.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import lattice, mbqc, protocols, qsim, rsp, zk
from .lattice import LatticeParams, TrapdoorKeypair
from .primitives import CoinSource, coin_source, commit, verify_commitment
from .profiles import Profile, get_profile
from .qsim import Angle8, StateVector


class HarnessError(Exception):
    pass


def tv_distance(law_a, law_b) -> float:
    """Total variation distance 0.5 * sum |pA - pB|, summed left to right:
    over the union support of two dict laws, in set-union key order, or
    over two aligned probability arrays (np.cumsum, never np.sum's
    pairwise reduction)."""
    if isinstance(law_a, np.ndarray):
        if law_a.shape != law_b.shape:
            raise HarnessError(f"laws of shapes {law_a.shape} and {law_b.shape}")
        return 0.5 * float(np.cumsum(np.abs(law_a - law_b))[-1])
    keys = set(law_a) | set(law_b)
    return 0.5 * sum(abs(law_a.get(k, 0.0) - law_b.get(k, 0.0)) for k in keys)


@dataclass
class DistributionReport:
    name: str
    method: str                  # "exact-enumeration" | "sampling(N)"
    support_size: int
    tv: float
    threshold: float
    passed: bool
    details: dict = field(default_factory=dict)
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name, "method": self.method,
            "support_size": self.support_size, "tv": self.tv,
            "threshold": self.threshold, "passed": self.passed,
            "details": self.details, "notes": self.notes,
        }


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise HarnessError(f"trials must be at least 1, got {trials}")


def sampled_threshold(trials: int) -> float:
    """TV threshold of a sampled check over trials draws per side,
    max(0.03, 2.5/sqrt(trials)).  Refuses trial counts where the check
    cannot run, or cannot fail: no TV exceeds 1, so trials <= 6 would
    pass whatever was sampled."""
    _require_trials(trials)
    threshold = max(0.03, 2.5 / trials ** 0.5)
    if threshold >= 1.0:
        raise HarnessError(f"{trials} trials give threshold {threshold:.3f}, "
                           "which no TV exceeds")
    return threshold


# --------------------------------------------------------- OQFE exact laws

# (m0, m1, s_bar) of each entry of an oqfe_bob_branches row, in index order
_BOB_BRANCHES = list(itertools.product((0, 1), repeat=3))


def born_rx_law(psi_in: StateVector, b: int) -> dict:
    """The ideal functionality: s_b = M_Z[Rx(-b*pi/2) |psi_in>]."""
    rot = qsim.apply_gate(psi_in, ("RX", Angle8(-2 * b)), 0)
    p1 = float(abs(rot.amplitudes[1]) ** 2)
    return {0: 1.0 - p1, 1: p1}


def oqfe_output_law_exact(psi_in: StateVector, b: int) -> dict:
    """Exact decoded-output law of the semi-honest protocol: enumerate the
    theta bits and mask uniformly, Bob's circuit branches with Born weights,
    then Alice's decode."""
    cases = list(itertools.product((0, 1), repeat=3))
    probs = protocols.oqfe_bob_branches(psi_in, [
        (qsim.plus_state(Angle8(4 * theta1 + 2 * theta2)),
         protocols.oqfe_delta(b, theta2, r_a)) for theta1, theta2, r_a in cases])
    law = {0: 0.0, 1: 0.0}
    for (theta1, _theta2, r_a), row in zip(cases, probs.reshape(len(cases), -1).tolist()):
        for (m0, _m1, s_bar), p in zip(_BOB_BRANCHES, row):
            if p == 0.0:
                continue
            s_b = protocols.oqfe_decode(b, theta1, r_a, m0, s_bar)
            law[s_b] += p / 8.0
    return law


def oqfe_correctness_report(psi_in: StateVector, b: int,
                            tolerance: float = 1e-9) -> DistributionReport:
    real = oqfe_output_law_exact(psi_in, b)
    ideal = born_rx_law(psi_in, b)
    tv = tv_distance(real, ideal)
    return DistributionReport(
        "oqfe-correctness", "exact-enumeration", 2, tv, tolerance,
        tv <= tolerance, {"real": real, "ideal": ideal, "b": b},
        "output law vs the ideal rotated Z measurement, all branches enumerated")


# ------------------------------------------------------------ delta law

def delta_law_exact(b: int, force_r0: bool = False) -> dict:
    law: dict[int, float] = {}
    masks = (0,) if force_r0 else (0, 1)
    weight = 1.0 / (2 * len(masks))
    for theta2 in (0, 1):
        for r_a in masks:
            d = int(protocols.oqfe_delta(b, theta2, r_a))
            law[d] = law.get(d, 0.0) + weight
    return law


def delta_uniformity_experiment(trials: int | None = None,
                                seed: bytes = b"\x00" * 32,
                                force_r0: bool = False) -> DistributionReport:
    """TV between the delta laws for b=0 and b=1 over uniform (theta2, r_A);
    exact when trials is None."""
    threshold = 0.0 if trials is None else sampled_threshold(trials)
    if trials is None:
        law0, law1 = delta_law_exact(0, force_r0), delta_law_exact(1, force_r0)
        tv = tv_distance(law0, law1)
        method = "exact-enumeration"
        details = {"law_b0": law0, "law_b1": law1}
    else:
        coins = coin_source(seed, "delta-exp")
        laws = []
        for b in (0, 1):
            counts: dict[int, int] = {}
            for _ in range(trials):
                theta2, r_a = coins.bit(), 0 if force_r0 else coins.bit()
                d = int(protocols.oqfe_delta(b, theta2, r_a))
                counts[d] = counts.get(d, 0) + 1
            laws.append({k: v / trials for k, v in counts.items()})
        tv = tv_distance(*laws)
        method = f"sampling({trials})"
        details = {"law_b0": laws[0], "law_b1": laws[1]}
    return DistributionReport(
        "delta-uniformity", method, 4, tv, threshold, tv <= threshold, details,
        "testable core of blindness: the delta marginal is independent of b; "
        "computational hiding of theta2 given the key is out of scope")


# ------------------------------------------------------ backend equivalence

def backend_equivalence_experiment(profile: str | Profile = "tiny",
                                   trials: int | None = None,
                                   seed: bytes = b"\x00" * 32,
                                   key_seed: bytes = bytes([4]) * 32,
                                   validate_points: int = 2) -> DistributionReport:
    """Transcript-message law of the quantum backend vs the shortcut backend.

    Exact mode decomposes the joint (y, w) law per image point; the analytic
    w formula is validated against dense branch enumeration of the quantum
    measurements on the first validate_points two-preimage points (an int
    >= 0, else HarnessError), each pair of w laws a length-2^W array whose
    TV is summed left to right.  Sampling mode runs both backends and
    compares empirical y marginals."""
    if type(validate_points) is not int or validate_points < 0:
        raise HarnessError(f"validate_points must be an int >= 0, got {validate_points!r}")
    prof = get_profile(profile) if isinstance(profile, str) else profile
    kp = lattice.gen_regular(prof.params, coin_source(key_seed, "gen"))
    if trials is None:
        census = lattice.image_census(kp.public)
        bits = census.regular_hardcore_bits()
        p_y = 1.0 / len(bits)
        # Both backends draw y uniformly over the regular image and then w
        # from the same per-point conditional, so the transcript TV is the
        # y-average of the per-point w-law TVs.  Where the dense quantum
        # branch enumeration is run, it stands in for the quantum backend's
        # law; elsewhere the two conditionals are the same formula by
        # construction, contributing zero.  The analytic law's support is
        # all 2^W strings when the hardcore bits differ, else the even
        # half-space, so it is counted from the hardcore bits alone.
        W = prof.params.preimage_bits
        support = int(np.sum(1 << (W - 1 + (bits[:, 0] ^ bits[:, 1]))))
        validated = census.regular_points(validate_points)
        tv = 0.0
        max_dev = 0.0
        for y in validated:
            x, xp = census.pair(y)
            point_tv = tv_distance(rsp.w_law_for_pair(prof.params, x, xp),
                                   rsp.w_law_dense(prof.params, x, xp))
            tv += p_y * point_tv
            max_dev = max(max_dev, point_tv)
        return DistributionReport(
            "backend-equivalence", "exact-enumeration", support,
            tv, 1e-12, tv <= 1e-12,
            {"validated_points": len(validated),
             "max_point_tv": max_dev},
            "per-image-point decomposition; w formula checked against dense "
            "branch enumeration on sampled points")
    threshold = sampled_threshold(trials)
    # the raw y support is too large for an empirical TV at small trial
    # counts, so the image point is coarsened into 8 hash bins
    bins = 8

    def bucket(y):
        return hashlib.sha256(repr(tuple(y)).encode()).digest()[0] % bins

    counts = [dict(), dict()]
    coins = coin_source(seed, "backend-eq")
    for idx, backend in enumerate((rsp.rsp_bob_quantum, rsp.rsp_bob_shortcut)):
        for t in range(trials):
            out = backend(kp.public, coins.child(f"{idx}/{t}"))
            key = bucket(out.y)
            counts[idx][key] = counts[idx].get(key, 0) + 1
    laws = [{k: v / trials for k, v in c.items()} for c in counts]
    tv = tv_distance(*laws)
    return DistributionReport(
        "backend-equivalence", f"sampling({trials})", bins, tv, threshold,
        tv <= threshold, {"marginal": "y-hash-bins", "bins": bins},
        "binned empirical image-point marginals of both backends")


# ------------------------------------------------- semi-honest-Alice views

@dataclass(frozen=True)
class ViewSample:
    """OQFE Alice's view: input bit, mask, RSP message, Bob's report."""
    b: int
    r_a: int
    y: tuple
    w: tuple
    m0: int
    s_bar: int

    def key(self):
        return (self.b, self.r_a, self.y, self.w, self.m0, self.s_bar)


def _view_classes(kp: TrapdoorKeypair) -> list[dict]:
    """Lump the (y, w) transcript space into classes on which both the real
    and the simulated conditional laws are constant and both marginals are
    uniform, so view-law TVs can be computed over classes instead of the
    multi-million-point raw space without any approximation.

    A class is keyed by (theta2 of y, parity of <w, Delta_y>, product of the
    two hardcore bits); theta1 = theta2*parity xor product.  For theta2=0
    the real w law lives on the even half-space while the literal simulator
    spreads w uniformly, which is where nearly all of its TV comes from."""
    census = lattice.image_census(kp.public)
    if np.any(census.counts != 2):
        raise HarnessError("view-law lumping assumes a fully 2-regular key")
    W = kp.params.preimage_bits
    p_y = 1.0 / len(census)
    # a class depends on the pair's hardcore bits only, not on their order:
    # count the points of each (hx ^ hx', hx * hx') kind, in first-seen order
    bits = census.regular_hardcore_bits()
    kinds = 2 * (bits[:, 0] ^ bits[:, 1]) + bits[:, 0] * bits[:, 1]
    _, first, counts = np.unique(kinds, return_index=True, return_counts=True)
    classes = []
    for at, count in sorted(zip(first.tolist(), counts.tolist())):
        theta2, hh = divmod(int(kinds[at]), 2)
        for parity in (0, 1):
            if theta2 == 0:
                # w uniform over the even half-space of size 2^(W-1)
                p_real = count * p_y if parity == 0 else 0.0
            else:
                p_real = count * p_y / 2
            classes.append({"theta2": theta2, "theta1": (theta2 * parity) ^ hh,
                            "p_real": p_real,
                            "p_literal": count * p_y / 2,   # w uniform over 2^W
                            "n_pairs": count << (W - 1)})
    return classes


def real_view_law(kp: TrapdoorKeypair, psi_in: StateVector, b: int) -> dict:
    """Exact class-lumped law of Alice's semi-honest view, conditioned on
    the keypair; keys are (b, class_key, r_a, m0, s_bar)."""
    return _real_view_law(_view_classes(kp), psi_in, b)


def _real_view_law(classes: list[dict], psi_in: StateVector, b: int) -> dict:
    cases = [(cl, r_a) for cl in classes if cl["p_real"] != 0.0 for r_a in (0, 1)]
    probs = protocols.oqfe_bob_branches(psi_in, [
        (qsim.plus_state(Angle8(4 * cl["theta1"] + 2 * cl["theta2"])),
         protocols.oqfe_delta(b, cl["theta2"], r_a)) for cl, r_a in cases])
    law: dict[tuple, float] = {}
    for (cl, r_a), row in zip(cases, probs.reshape(len(cases), -1).tolist()):
        for (m0, _m1, s_bar), p in zip(_BOB_BRANCHES, row):
            if p == 0.0:
                continue
            key = (b, _class_key(cl), r_a, m0, s_bar)
            law[key] = law.get(key, 0.0) + cl["p_real"] * 0.5 * p
    return law


def _class_key(cl: dict) -> tuple:
    return (cl["theta2"], cl["theta1"], cl["p_real"] == 0.0)


def simulated_view_law(kp: TrapdoorKeypair, psi_in: StateVector, b: int,
                       variant: str = "corrected") -> dict:
    """Exact class-lumped law of the simulator's output, same keys and
    conditioning as real_view_law."""
    return _simulated_view_law(_view_classes(kp), psi_in, b, variant)


def _simulated_view_law(classes: list[dict], psi_in: StateVector, b: int,
                        variant: str) -> dict:
    if variant not in ("corrected", "literal"):
        raise HarnessError(f"unknown simulator variant {variant!r}")
    ideal = born_rx_law(psi_in, b)
    law: dict[tuple, float] = {}
    for cl in classes:
        theta1 = cl["theta1"]
        p_cl = cl["p_real"] if variant == "corrected" else cl["p_literal"]
        if p_cl == 0.0:
            continue
        for r_a, m0, s_bar in itertools.product((0, 1), repeat=3):
            for s_b, p_sb in ideal.items():
                if p_sb == 0.0:
                    continue
                if b == 1:
                    # decode identity wired in: the free coin is s_bar
                    p_pair = 0.5 if m0 == (s_bar ^ s_b ^ theta1 ^ r_a) else 0.0
                elif variant == "corrected":
                    # b=0 decode ignores m0; the free coin is m0
                    p_pair = 0.5 if s_bar == (s_b ^ theta1 ^ r_a) else 0.0
                else:
                    p_pair = 0.25  # both bits free coins, independent of s_b
                if p_pair == 0.0:
                    continue
                key = (b, _class_key(cl), r_a, m0, s_bar)
                law[key] = law.get(key, 0.0) + p_cl * 0.5 * p_sb * p_pair
    return law


def simulate_semi_honest_alice(b: int, s_b: int, kp: TrapdoorKeypair,
                               coins: CoinSource,
                               variant: str = "corrected") -> ViewSample:
    """One simulated view sample, the sampling counterpart of
    simulated_view_law (s_b supplied by the ideal functionality)."""
    W = kp.params.preimage_bits
    if variant == "corrected":
        out = rsp.rsp_bob_shortcut(kp.public, coins.child("transcript"))
        y, w = out.y, out.w_meas
    else:
        census = lattice.image_census(kp.public)
        ys = sorted(census)
        y = ys[coins.randint(len(ys))]
        w = tuple((coins.bits(W) >> i) & 1 for i in range(W))
    r_a = coins.bit()
    try:
        dec = rsp.rsp_alice_decode(kp, y, w)
        theta1 = dec.theta1
    except rsp.RspAbort:
        theta1 = 0
    if b == 1:
        s_bar = coins.bit()
        m0 = s_bar ^ s_b ^ theta1 ^ r_a
    elif variant == "corrected":
        m0 = coins.bit()
        s_bar = s_b ^ theta1 ^ r_a
    else:
        m0, s_bar = coins.bit(), coins.bit()
    return ViewSample(b, r_a, tuple(y), tuple(w), m0, s_bar)


def simulator_tv_experiment(psi_in: StateVector, b: int,
                            key_seed: bytes = bytes([4]) * 32,
                            profile: str = "tiny",
                            variant: str = "corrected") -> DistributionReport:
    params = get_profile(profile).params
    kp = lattice.gen_regular(params, coin_source(key_seed, "gen"))
    classes = _view_classes(kp)
    real = _real_view_law(classes, psi_in, b)
    sim = _simulated_view_law(classes, psi_in, b, variant)
    tv = tv_distance(real, sim)
    raw_pairs = sum(cl["n_pairs"] for cl in classes)
    return DistributionReport(
        "simulator-tv", "exact-enumeration", len(set(real) | set(sim)),
        tv, 0.05, tv <= 0.05,
        {"b": b, "variant": variant, "raw_transcript_pairs": raw_pairs},
        "exact view comparison at desk scale, conditioned on a fixed keypair "
        "and lumped over transcript equivalence classes; the underlying "
        "claim is asymptotic statistical indistinguishability")


# --------------------------------------------------- blind pattern evaluation

def q2pc_blinded_law_exact(pattern: mbqc.BrickworkPattern,
                           psi_in: StateVector, thetas: dict,
                           r_mask: dict) -> dict:
    """Exact output law of the blinded measurement process for fixed
    preparation angles and mask bits: pre-rotated graph state, adaptive
    measurement at delta, outcome unmasking.  Equals the plain pattern law
    for every (thetas, r_mask) assignment; enumerating it for the
    assignment an actual protocol run used ties the protocol to the
    circuit-model oracle branch by branch.  The walk takes each delta
    from mbqc.flow_bits and mbqc.blind_delta, as Alice does, so the
    oracle checks the angles she sends."""
    blinded = pattern.sites()[pattern.n:]
    for name, table in (("thetas", thetas), ("r_mask", r_mask)):
        missing = [site for site in blinded if site not in table]
        if missing:
            raise mbqc.MbqcError(f"{name} has no entry for site {missing[0]}")
    prepared = {site: qsim.plus_state(thetas[site]) for site in blinded}
    state = mbqc.entangled_graph_state(pattern, psi_in, prepared)
    return mbqc._branch_law(pattern, state, thetas, r_mask)


def q2pc_correctness_report(pattern: mbqc.BrickworkPattern,
                            psi_in: StateVector, seed: bytes,
                            params=None,
                            tolerance: float = 1e-9) -> DistributionReport:
    """One seeded protocol run fixes the preparation angles and masks; the
    full measurement-branch law for that assignment is then enumerated and
    compared to the independent circuit-model oracle."""
    params = params or get_profile("tiny").params
    alice, _bob, _ae, _be = protocols.q2pc_run(
        pattern, psi_in, params, seed, backend=rsp.rsp_bob_shortcut)
    law = q2pc_blinded_law_exact(pattern, psi_in, alice.thetas, alice.r_mask)
    ref = mbqc.circuit_model_law(pattern, psi_in)
    tv = tv_distance(law, ref)
    witnessed = law.get(alice.output, 0.0) > 0.0
    return DistributionReport(
        "q2pc-correctness", "exact-enumeration", len(set(law) | set(ref)),
        tv, tolerance, tv <= tolerance and witnessed,
        {"run_output": list(alice.output), "output_in_support": witnessed},
        "blinded branch enumeration at the run's preparation angles vs the "
        "pattern's logical circuit")


# --------------------------------------------------- malicious-Alice pieces

def extract_malicious_alice(bob_view: protocols.OqfeBobView,
                            params: LatticeParams) -> int:
    """The extractor against a convincing malicious Alice: pull her coin
    share out of the accepted key-generation proof, re-derive the keypair,
    read theta2 off the hardcore bit, and peel b out of delta."""
    session = bob_view.keygen_session
    if session is None or session.verdict != "accept":
        raise HarnessError("extraction needs an accepted key-generation proof")
    r_f_a, dec_f = zk.extract(session)
    if not verify_commitment(bob_view.com_f, dec_f, r_f_a):
        raise HarnessError("flagged cheat: commitment does not open")
    kp = lattice.gen_from_shares(params, r_f_a, bob_view.r_f_bob)
    if kp.public.to_bytes() != bob_view.pk_bytes:
        raise HarnessError("flagged cheat: key not derived from the coins")
    theta2 = kp.hp
    return ((int(bob_view.delta) // 2 - theta2) % 4) % 2


def extractor_experiment(trials: int = 100, seed: bytes = b"\x00" * 32,
                         profile: str = "tiny",
                         biased_mask: int | None = None) -> DistributionReport:
    """Honest (optionally mask-biased) Alices against the extractor."""
    _require_trials(trials)
    params = get_profile(profile).params
    correct = 0
    base = coin_source(seed, "extractor")
    for t in range(trials):
        run_seed = base.take_bytes(32)
        b = base.bit()
        auth = zk.ZkAuthority()
        sid, acoins, bcoins = protocols.seeded_session(run_seed)
        if biased_mask is None:
            alice = lambda ep: protocols.oqfe_mal_alice(ep, b, params, acoins, auth)
        else:
            alice = lambda ep: _biased_mask_alice(ep, b, params, acoins, auth,
                                                  biased_mask)
        bob = lambda ep: protocols.oqfe_mal_bob(
            ep, qsim.plus_state(), params, bcoins, rsp.rsp_bob_shortcut, auth)
        _, bob_view, _, _ = protocols.run_pair(alice, bob, sid)
        if extract_malicious_alice(bob_view, params) == b:
            correct += 1
    tv = 1.0 - correct / trials
    return DistributionReport(
        "extractor", f"sampling({trials})", 2, tv, 0.0, correct == trials,
        {"correct": correct, "trials": trials,
         "biased_mask": biased_mask},
        "b recovered from delta and the extracted coin share; the mask enters "
        "as 2*r_A and vanishes mod 2")


def _biased_mask_alice(ep, b, params, coins, auth, mask_value: int):
    """Honest-but-biased Alice: fixes r_A instead of flipping a coin."""

    class Rigged:
        def __init__(self, inner):
            self._inner = inner

        def child(self, tag):
            if tag == "mask":
                rig = coin_source(b"\x00" * 32, "rigged-mask")
                rig.bit = lambda: mask_value
                return rig
            return self._inner.child(tag)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    return protocols.oqfe_mal_alice(ep, b, params, Rigged(coins), auth)


# ------------------------------------------------------- cheating strategies

def cheating_alice_bad_key(ep, b, params, coins, auth):
    """Publishes a key not derived from the committed coins."""
    r_f_a, com_f, dec_f, r_f_b = protocols._alice_coin_toss(ep, coins)
    kp = lattice.gen_regular(params, coins.child("rogue"))
    protocols._alice_publish_key(ep, params, auth, com_f, r_f_b, kp,
                                 (r_f_a, dec_f))
    ep.expect("rsp.meas")   # never reached: Bob aborts first
    raise HarnessError("cheat unexpectedly survived")


def cheating_alice_wrong_commitment(ep, b, params, coins, auth):
    """Proves over a commitment that does not open to her coin share."""
    r_f_a, com_f, _dec, r_f_b = protocols._alice_coin_toss(ep, coins)
    _, wrong_dec = commit(r_f_a, coins.child("other"))
    kp = lattice.gen_from_shares(params, r_f_a, r_f_b)
    protocols._alice_publish_key(ep, params, auth, com_f, r_f_b, kp,
                                 (r_f_a, wrong_dec))
    ep.expect("rsp.meas")
    raise HarnessError("cheat unexpectedly survived")


def cheating_experiment(strategy, seed: bytes = b"\x01" * 32,
                        profile: str = "tiny") -> str:
    """Runs one scripted cheating Alice; returns the abort phase."""
    params = get_profile(profile).params
    auth = zk.ZkAuthority()
    sid, acoins, bcoins = protocols.seeded_session(seed)
    alice = lambda ep: strategy(ep, 0, params, acoins, auth)
    bob = lambda ep: protocols.oqfe_mal_bob(
        ep, qsim.plus_state(), params, bcoins, rsp.rsp_bob_shortcut, auth)
    try:
        protocols.run_pair(alice, bob, sid)
    except protocols.ProtocolAbort as abort:
        return abort.phase
    raise HarnessError("scripted cheat was not caught")
