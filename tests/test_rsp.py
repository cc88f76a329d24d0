"""Remote state preparation: decode identities, backend equivalence, and the
8-state merge, all checked against dense statevector enumeration."""

import numpy as np
import pytest

from q2pc import lattice, qsim, rsp
from q2pc.primitives import coin_source
from q2pc.profiles import get_profile
from q2pc.qsim import Angle8

TINY = get_profile("tiny").params
KP = lattice.gen(TINY, coin_source(bytes([4]) * 32, "gen"))      # hp = 0
KP2 = lattice.gen(TINY, coin_source(bytes([8]) * 32, "gen"))     # hp = 1


def seeded(i, tag):
    return coin_source(bytes([i % 256, i // 256]) + bytes(30), tag)


def test_keypair_hardcore_bits_cover_both_values():
    assert KP.hp == 0 and KP2.hp == 1


def test_decode_theta2_equals_hardcore_bit():
    for kp in (KP, KP2):
        for i in range(20):
            out = rsp.rsp_bob_shortcut(kp.public, seeded(i, "t2"))
            a = rsp.rsp_alice_decode(kp, out.y, out.w_meas)
            assert a.theta2 == kp.hp


def test_decode_formula_hand_cases():
    # h(x)=h(x')=1 -> theta2=0, theta1=1 regardless of w
    x = lattice.Preimage((0,), (0, 0, 0, 0), 0, 1)
    xp = lattice.Preimage((1,), (0, 0, 0, 0), 1, 1)
    th2 = lattice.hardcore(x) ^ lattice.hardcore(xp)
    th1 = (th2 & 1) ^ (lattice.hardcore(x) & lattice.hardcore(xp))
    assert (th1, th2) == (1, 0)
    # h(x)=0, h(x')=1, <w, delta>=0 -> theta2=1, theta1=0
    xp0 = lattice.Preimage((1,), (0, 0, 0, 0), 1, 1)
    x0 = lattice.Preimage((0,), (0, 0, 0, 0), 0, 0)
    th2 = lattice.hardcore(x0) ^ lattice.hardcore(xp0)
    th1 = (th2 & 0) ^ (lattice.hardcore(x0) & lattice.hardcore(xp0))
    assert (th1, th2) == (0, 1)


@pytest.mark.parametrize("kp", [KP, KP2], ids=["hp0", "hp1"])
def test_quantum_backend_state_matches_decoded_theta(kp):
    for i in range(25):
        out = rsp.rsp_bob_quantum(kp.public, seeded(i, "q"))
        a = rsp.rsp_alice_decode(kp, out.y, out.w_meas)
        assert qsim.overlap(out.state, qsim.plus_state(a.theta)) >= 1 - 1e-9


@pytest.mark.parametrize("kp", [KP, KP2], ids=["hp0", "hp1"])
def test_shortcut_backend_state_matches_decoded_theta(kp):
    for i in range(50):
        out = rsp.rsp_bob_shortcut(kp.public, seeded(i, "s"))
        a = rsp.rsp_alice_decode(kp, out.y, out.w_meas)
        assert qsim.overlap(out.state, qsim.plus_state(a.theta)) >= 1 - 1e-9


def test_output_state_always_in_four_state_set():
    allowed = [qsim.plus_state(Angle8(v)) for v in (0, 2, 4, 6)]
    for i in range(20):
        out = rsp.rsp_bob_quantum(KP.public, seeded(i, "set"))
        assert max(qsim.overlap(out.state, s) for s in allowed) >= 1 - 1e-9


def test_fixed_seed_deterministic():
    a = rsp.rsp_bob_quantum(KP.public, seeded(3, "det"))
    b = rsp.rsp_bob_quantum(KP.public, seeded(3, "det"))
    assert a.y == b.y and a.w_meas == b.w_meas
    assert qsim.overlap(a.state, b.state) >= 1 - 1e-12


def test_shortcut_deterministic_given_coins():
    a = rsp.rsp_bob_shortcut(KP.public, seeded(5, "det2"))
    b = rsp.rsp_bob_shortcut(KP.public, seeded(5, "det2"))
    assert a.y == b.y and a.w_meas == b.w_meas


def test_w_law_formula_matches_dense_enumeration():
    # KP: the even half-space law; KP2: the uniform law
    pairs = [pair for kp in (KP, KP2) for _y, _p_y, *pair in rsp.transcript_law(kp.public)[:2]]
    for x, xp in pairs:
        law = rsp.w_law_for_pair(TINY, x, xp)
        dense = rsp.w_law_dense(TINY, x, xp)
        assert law.shape == dense.shape == (1 << TINY.preimage_bits,)
        # same support (the dense walk keeps only the allowed branches)
        assert np.array_equal(np.flatnonzero(law), np.flatnonzero(dense))
        assert np.max(np.abs(law - dense)) < 1e-12


# |v| mod 2 for every W-bit v, counted one character at a time
PARITY = np.array([bin(v).count("1") & 1 for v in range(1 << TINY.preimage_bits)])


@pytest.mark.parametrize("kp", [KP, KP2], ids=["d0=0", "d0=1"])
def test_w_law_is_the_parity_formula_on_every_regular_point(kp):
    # uniform when the h values differ, else uniform on <w, delta> = 0
    W = TINY.preimage_bits
    census = lattice.image_census(kp.public)
    for y in census.regular_points():
        x, xp = census.pair(y)
        delta = lattice.encode(TINY, x) ^ lattice.encode(TINY, xp)
        if lattice.hardcore(x) ^ lattice.hardcore(xp):
            formula = np.full(1 << W, 2.0 ** -W)
        else:
            formula = np.where(PARITY[np.arange(1 << W) & delta] == 0, 2.0 ** (1 - W), 0.0)
        assert np.array_equal(rsp.w_law_for_pair(TINY, x, xp), formula)


def test_half_space_law_when_h_values_agree():
    # forbidden odd-parity outcomes never appear from either backend
    kp = KP if KP.hp == 0 else KP2
    for i in range(30):
        out = rsp.rsp_bob_shortcut(kp.public, seeded(i, "hs"))
        x, xp = lattice.invert(kp, np.array(out.y, dtype=np.int64))
        if lattice.hardcore(x) ^ lattice.hardcore(xp):
            continue
        delta = lattice.encode(TINY, x) ^ lattice.encode(TINY, xp)
        assert bin(rsp.w_int_of(out.w_meas) & delta).count("1") % 2 == 0


def test_transcript_law_is_a_distribution_with_uniform_y_marginal():
    law = rsp.transcript_law(KP.public)
    total = sum(p_y * float(rsp.w_law_for_pair(TINY, x, xp).sum())
                for _y, p_y, x, xp in law)
    assert abs(total - 1.0) < 1e-9
    assert len({y for y, *_ in law}) == len(law)
    p_ys = [p_y for _y, p_y, _x, _xp in law]
    assert max(p_ys) - min(p_ys) < 1e-12


def test_shortcut_y_frequencies_uniform_chi2():
    support = sorted(y for y, *_ in rsp.transcript_law(KP.public))
    index = {y: i for i, y in enumerate(support)}
    n = 4000
    counts = np.zeros(len(support))
    coins = seeded(9, "chi2")
    for _ in range(n):
        out = rsp.rsp_bob_shortcut(KP.public, coins.child(str(_)))
        counts[index[out.y]] += 1
    expected = n / len(support)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # dof = |image|-1; normal-approx cutoff mean + 4*sqrt(2*dof)
    dof = len(support) - 1
    assert chi2 < dof + 4 * (2 * dof) ** 0.5


def test_decode_rejects_out_of_image_y():
    import itertools
    image = set(lattice.image_census(KP.public))
    bad = next(y for y in itertools.product(range(TINY.q), repeat=TINY.m)
               if y not in image)
    with pytest.raises(rsp.RspAbort):
        rsp.rsp_alice_decode(KP, bad, (0,) * TINY.preimage_bits)


def test_decode_rejects_wrong_width_w():
    out = rsp.rsp_bob_shortcut(KP.public, seeded(1, "ww"))
    with pytest.raises(rsp.RspAbort):
        rsp.rsp_alice_decode(KP, out.y, out.w_meas[:-1])


@pytest.mark.parametrize("pair", [(KP, KP2), (KP2, KP), (KP, KP), (KP2, KP2)],
                         ids=["01", "10", "00", "11"])
def test_merge_theta_matches_held_state(pair):
    kpa, kpb = pair
    for i in range(40):
        theta, bob = rsp.rsp8_local(kpa, kpb, seeded(i, "m8"),
                                    backend=rsp.rsp_bob_shortcut)
        assert qsim.overlap(bob.state, qsim.plus_state(theta)) >= 1 - 1e-9


def test_merge_quantum_backend_agrees():
    for i in range(8):
        theta, bob = rsp.rsp8_local(KP, KP2, seeded(i, "m8q"))
        assert qsim.overlap(bob.state, qsim.plus_state(theta)) >= 1 - 1e-9


def test_merge_reaches_all_eight_angles():
    seen = set()
    for i in range(200):
        theta, _ = rsp.rsp8_local(KP, KP2, seeded(i, "m8all"),
                                  backend=rsp.rsp_bob_shortcut)
        seen.add(int(theta))
        if len(seen) == 8:
            break
    assert seen == set(range(8))


def test_merge_branch_enumeration_exact():
    """Ground truth for the merge rule: for fixed sub-run outcomes, enumerate
    both t branches of the merge measurement on rsp.merge_state, the state
    bob_merge measures, and check Alice's theta against the residual state
    in each."""
    for i in range(6):
        coins = seeded(i, "m8enum")
        run1 = rsp.rsp_bob_shortcut(KP.public, coins.child("run1"))
        run2 = rsp.rsp_bob_shortcut(KP2.public, coins.child("run2"), raw=True)
        first = rsp.rsp_alice_decode(KP, run1.y, run1.w_meas)
        second = rsp.rsp_alice_decode(KP2, run2.y, run2.w_meas)
        for u in range(8):
            st = rsp.merge_state(run1.state, run2.state, Angle8(u))
            for br in qsim.enumerate_branches(st, [(1, Angle8(2))]):
                if br.impossible:
                    continue
                theta = rsp.alice_merge_theta(first, second, Angle8(u), br.outcomes[0])
                assert qsim.overlap(br.residual, qsim.plus_state(theta)) >= 1 - 1e-9
