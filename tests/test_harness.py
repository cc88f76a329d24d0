"""Security experiments: exact TV machinery, both simulator variants against
the enumerated real view, the malicious-Alice extractor, and the scripted
cheating strategies."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q2pc import harness, lattice, mbqc, protocols, qsim, zk
from q2pc.primitives import coin_source
from q2pc.profiles import Profile, get_profile
from q2pc.qsim import Angle8

TINY = get_profile("tiny").params
KP = lattice.gen_regular(TINY, coin_source(bytes([4]) * 32, "gen"))   # hp=0
KP2 = lattice.gen_regular(TINY, coin_source(bytes([8]) * 32, "gen"))  # hp=1

PLUS = qsim.plus_state()
IPLUS = qsim.plus_state(Angle8(2))


# ------------------------------------------------------------- tv_distance

def test_tv_identical_laws():
    assert harness.tv_distance({0: 0.5, 1: 0.5}, {1: 0.5, 0: 0.5}) == 0.0


def test_tv_disjoint_masses():
    assert harness.tv_distance({0: 1.0}, {1: 1.0}) == 1.0


def test_tv_hand_value():
    assert abs(harness.tv_distance({0: 0.75, 1: 0.25},
                                   {0: 0.5, 1: 0.5}) - 0.25) < 1e-15


def test_tv_union_support():
    assert abs(harness.tv_distance({0: 1.0}, {0: 0.5, 1: 0.5}) - 0.5) < 1e-15


def test_tv_arrays_sum_left_to_right_like_dicts():
    # values whose pairwise and sequential sums differ in the last bits
    rng = np.random.default_rng(5)
    a, b = rng.random(1000) * 1e-3, rng.random(1000) * 1e-3
    a[::3] = 0.0
    want = harness.tv_distance(dict(enumerate(a.tolist())), dict(enumerate(b.tolist())))
    assert harness.tv_distance(a, b) == want
    assert harness.tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    with pytest.raises(harness.HarnessError):
        harness.tv_distance(np.zeros(4), np.zeros(8))


# ------------------------------------------------------ correctness oracle

@pytest.mark.parametrize("b", [0, 1])
def test_output_law_equals_born_law(b):
    for psi in (qsim.basis_state(1, 0), PLUS, IPLUS):
        rep = harness.oqfe_correctness_report(psi, b)
        assert rep.passed and rep.tv <= 1e-9


def test_report_serializes_to_json():
    rep = harness.oqfe_correctness_report(PLUS, 0)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["method"] == "exact-enumeration"
    assert data["passed"] is True


# ------------------------------------------------------------ delta law

def test_delta_marginal_independent_of_b_exact():
    rep = harness.delta_uniformity_experiment()
    assert rep.tv == 0.0 and rep.passed


def test_delta_marginal_is_uniform_on_even_angles():
    law = harness.delta_law_exact(0)
    assert law == {0: 0.25, 2: 0.25, 4: 0.25, 6: 0.25}


def test_delta_leaks_b_without_the_mask():
    rep = harness.delta_uniformity_experiment(force_r0=True)
    assert rep.tv == 0.5 and not rep.passed


def test_delta_sampling_mode_is_deterministic():
    a = harness.delta_uniformity_experiment(trials=400, seed=b"\x05" * 32)
    b = harness.delta_uniformity_experiment(trials=400, seed=b"\x05" * 32)
    assert a.to_dict() == b.to_dict()
    assert a.passed


def test_sampled_threshold_refuses_checks_that_cannot_run_or_fail():
    assert harness.sampled_threshold(400) == 0.125
    assert harness.sampled_threshold(10_000) == 0.03
    assert harness.sampled_threshold(7) < 1.0
    for trials in (-3, 0, 1, 6):
        with pytest.raises(harness.HarnessError):
            harness.sampled_threshold(trials)


# ------------------------------------------------------ backend equivalence

def test_backend_equivalence_exact():
    rep = harness.backend_equivalence_experiment()
    assert rep.passed and rep.tv <= 1e-12
    assert rep.details["validated_points"] == 2


@pytest.mark.parametrize("points", [-1, 1.5, True, "2", None])
def test_backend_equivalence_refuses_a_bad_validate_points(points):
    with pytest.raises(harness.HarnessError, match="validate_points"):
        harness.backend_equivalence_experiment(validate_points=points)


def test_backend_equivalence_validates_no_point_or_every_asked_one():
    none = harness.backend_equivalence_experiment(validate_points=0)
    assert none.details == {"validated_points": 0, "max_point_tv": 0.0}
    assert none.tv == 0.0 and none.passed
    some = harness.backend_equivalence_experiment(validate_points=5)
    assert some.details["validated_points"] == 5 and some.passed


def test_backend_equivalence_rejects_large_profiles():
    # the image table refuses a domain too large to enumerate
    large = Profile("large", lattice.LatticeParams(n=2, m=16, q=256, sigma0=1, sigma=4))
    with pytest.raises(lattice.LatticeError, match="too large to enumerate"):
        harness.backend_equivalence_experiment(profile=large)


def test_backend_equivalence_sampling():
    rep = harness.backend_equivalence_experiment(trials=150,
                                                 seed=b"\x09" * 32)
    assert rep.details["marginal"] == "y-hash-bins"
    assert rep.passed


# ---------------------------------------------------- semi-honest simulator

@pytest.mark.parametrize("b", [0, 1])
def test_corrected_simulator_is_exact(b):
    rep = harness.simulator_tv_experiment(PLUS, b, variant="corrected")
    assert rep.tv <= 1e-12 and rep.passed


@pytest.mark.parametrize("b", [0, 1])
def test_literal_simulator_gap_is_reported(b):
    rep = harness.simulator_tv_experiment(PLUS, b, variant="literal")
    assert rep.tv > 0.05 and not rep.passed


def loop_view_classes(kp):
    """Reference: walk every image point and parity, one class per
    (theta2, parity, hx * hx') in first-seen order."""
    census = lattice.image_census(kp.public)
    p_y, half = 1.0 / len(census), 1 << (kp.params.preimage_bits - 1)
    acc = {}
    for _y, pres in census.items():
        hx, hxp = (z.d for z in pres)
        theta2, hh = hx ^ hxp, hx * hxp
        for parity in (0, 1):
            cl = acc.setdefault((theta2, parity, hh), {
                "theta2": theta2, "theta1": (theta2 * parity) ^ hh,
                "p_real": 0.0, "p_literal": 0.0, "n_pairs": 0})
            cl["p_real"] += (p_y / 2 if theta2 else p_y * (parity == 0))
            cl["p_literal"] += p_y / 2
            cl["n_pairs"] += half
    return list(acc.values())


@pytest.mark.parametrize("kp", [KP, KP2], ids=["d0=0", "d0=1"])
def test_view_classes_match_a_loop_over_every_point(kp):
    got, ref = harness._view_classes(kp), loop_view_classes(kp)
    assert [(c["theta2"], c["theta1"], c["n_pairs"]) for c in got] == \
        [(c["theta2"], c["theta1"], c["n_pairs"]) for c in ref]
    for a, b in zip(got, ref):
        # a count times p_y against a running sum of p_y: last bits only
        assert a["p_real"] == pytest.approx(b["p_real"], rel=1e-12, abs=1e-15)
        assert a["p_literal"] == pytest.approx(b["p_literal"], rel=1e-12)


def test_real_and_simulated_laws_are_distributions():
    for law in (harness.real_view_law(KP, IPLUS, 1),
                harness.simulated_view_law(KP, IPLUS, 1, "corrected"),
                harness.simulated_view_law(KP, IPLUS, 1, "literal")):
        assert abs(sum(law.values()) - 1.0) < 1e-9


def test_simulated_sample_satisfies_decode_identity_for_b1():
    for i in range(30):
        coins = coin_source(bytes([i]) + bytes(31), "sim")
        for s_b in (0, 1):
            v = harness.simulate_semi_honest_alice(1, s_b, KP, coins)
            from q2pc import rsp
            theta1 = rsp.rsp_alice_decode(KP, v.y, v.w).theta1
            assert v.s_bar ^ theta1 ^ v.r_a ^ v.m0 == s_b


def test_simulated_sample_b0_ignores_s_b():
    coins_a = coin_source(b"\x11" * 32, "sim")
    coins_b = coin_source(b"\x11" * 32, "sim")
    v0 = harness.simulate_semi_honest_alice(0, 0, KP, coins_a)
    v1 = harness.simulate_semi_honest_alice(0, 1, KP, coins_b)
    assert v0.m0 == v1.m0 and v0.r_a == v1.r_a


def test_unknown_variant_rejected():
    with pytest.raises(harness.HarnessError):
        harness.simulated_view_law(KP, PLUS, 0, "other")


# ----------------------------------------------------- blinded pattern law

@st.composite
def blind_cases(draw):
    """A random brickwork pattern (n <= 3, n*m <= 8, bridges at rows of one
    parity per column), a random input state, preparation angles, masks."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 8 // n))
    phi = tuple(tuple(Angle8(0 if j == 0 else draw(st.integers(0, 7)))
                      for j in range(m)) for _ in range(n))
    bridges = tuple((i, j) for j in range(1, m)
                    for i in range(j % 2, n - 1, 2) if draw(st.booleans()))
    pattern = mbqc.BrickworkPattern(n, m, phi, bridges)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    psi = qsim.make_state(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
    sites = pattern.sites()[n:]
    thetas = {s: Angle8(draw(st.integers(0, 7))) for s in sites}
    masks = {s: draw(st.integers(0, 1)) for s in sites}
    return pattern, psi, thetas, masks


@settings(max_examples=60, deadline=None)
@given(blind_cases())
def test_blinded_law_matches_circuit_oracle(case):
    pattern, psi, thetas, masks = case
    law = harness.q2pc_blinded_law_exact(pattern, psi, thetas, masks)
    assert harness.tv_distance(law, mbqc.circuit_model_law(pattern, psi)) <= 1e-9
    zero = dict.fromkeys(thetas, Angle8(0))
    assert (harness.q2pc_blinded_law_exact(pattern, psi, zero,
                                           dict.fromkeys(masks, 0))
            == mbqc.reference_evaluate(pattern, psi))


@pytest.mark.parametrize("n,m,seed", [(3, 5, 1), (3, 5, 2), (4, 4, 3), (4, 4, 4)])
def test_large_brickwork_laws_match_circuit_oracle(n, m, seed):
    """Sizes the branch walk reaches now that every branch is walked at
    once: 3x5 and 4x4 random brickwork, random input, angles and masks."""
    rng = np.random.default_rng(seed)
    phi = tuple(tuple(Angle8(0 if j == 0 else rng.integers(8)) for j in range(m))
                for _ in range(n))
    bridges = tuple((i, j) for j in range(1, m) for i in range(j % 2, n - 1, 2)
                    if rng.integers(2))
    pattern = mbqc.BrickworkPattern(n, m, phi, bridges)
    psi = qsim.make_state(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
    sites = pattern.sites()[n:]
    thetas = {s: Angle8(rng.integers(8)) for s in sites}
    masks = {s: int(rng.integers(2)) for s in sites}
    oracle = mbqc.circuit_model_law(pattern, psi)
    assert harness.tv_distance(mbqc.reference_evaluate(pattern, psi), oracle) <= 1e-9
    blinded = harness.q2pc_blinded_law_exact(pattern, psi, thetas, masks)
    assert harness.tv_distance(blinded, oracle) <= 1e-9


def test_blinded_law_shares_the_graph_checks():
    pat = mbqc.rx_teleport_pattern(Angle8(1))
    two = qsim.tensor(PLUS, PLUS)
    with pytest.raises(mbqc.MbqcError):
        harness.q2pc_blinded_law_exact(pat, two, {(0, 1): Angle8(0)}, {(0, 1): 0})
    wide = mbqc.BrickworkPattern(2, 13, tuple(tuple(Angle8(0) for _ in range(13))
                                              for _ in range(2)))
    zero = dict.fromkeys(wide.sites()[wide.n:], 0)
    with pytest.raises(mbqc.MbqcError):
        harness.q2pc_blinded_law_exact(wide, two, zero, zero)


def test_blinded_law_names_a_site_missing_from_thetas_or_masks():
    pat = mbqc.brick_pattern(Angle8(1), Angle8(3))
    two = qsim.tensor(PLUS, PLUS)
    full = dict.fromkeys(pat.sites()[pat.n:], 0)
    short = dict(full)
    del short[(1, 1)]
    for thetas, r_mask, name in ((short, full, "thetas"), (full, short, "r_mask")):
        with pytest.raises(mbqc.MbqcError, match=rf"{name} .*\(1, 1\)"):
            harness.q2pc_blinded_law_exact(pat, two, thetas, r_mask)


# ------------------------------------------------------------- extractor

def test_extractor_recovers_b_on_honest_runs():
    rep = harness.extractor_experiment(trials=20, seed=b"\x02" * 32)
    assert rep.details["correct"] == 20


def test_extractor_is_mask_insensitive():
    for mask in (0, 1):
        rep = harness.extractor_experiment(trials=6, seed=b"\x03" * 32,
                                           biased_mask=mask)
        assert rep.details["correct"] == 6


def test_extractor_totality_over_angle_combinations():
    # the closed form alone: for every (b, theta2, r_a) the honest delta
    # inverts to b
    for b in (0, 1):
        for theta2 in (0, 1):
            for r_a in (0, 1):
                delta = protocols.oqfe_delta(b, theta2, r_a)
                assert ((int(delta) // 2 - theta2) % 4) % 2 == b


def test_extractor_needs_accepting_session():
    view = protocols.OqfeBobView()
    with pytest.raises(harness.HarnessError):
        harness.extract_malicious_alice(view, TINY)


def test_cheating_strategies_abort():
    for strategy in (harness.cheating_alice_bad_key,
                     harness.cheating_alice_wrong_commitment):
        assert harness.cheating_experiment(strategy) == "keygen-proof"
