import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q2pc import lattice as lat
from q2pc import primitives as pr
from q2pc.profiles import get_profile

# this seed's tiny key is fully 2-regular (irregular fraction 0.0); key
# geometry varies by seed and the fraction is reported, not assumed
SEED = b"\x04" * 32
TINY = get_profile("tiny").params
# larger parameters, too big for the image table: gadget decoding only
SMALL = lat.LatticeParams(n=2, m=16, q=256, sigma0=1, sigma=4)
DEMO = lat.LatticeParams(n=4, m=64, q=4096, sigma0=2, sigma=32)


def keypair(seed=SEED, params=TINY):
    return lat.gen(params, pr.coin_source(seed, "gen"))


def test_params_validation():
    with pytest.raises(lat.LatticeError):
        lat.LatticeParams(1, 4, 12, 0, 1)  # q not a power of two
    with pytest.raises(lat.LatticeError):
        lat.LatticeParams(2, 4, 8, 0, 1)  # m too small for the gadget
    with pytest.raises(lat.LatticeError):
        lat.LatticeParams(1, 4, 8, 2, 1)  # sigma0 > sigma


def test_gen_recomputable_y0():
    kp = keypair(params=SMALL)
    y0 = lat.eval_f(kp.public, lat.Preimage(kp.s0, kp.e0, 0, kp.d0))
    assert np.array_equal(y0, kp.public.y0)
    assert kp.hp == kp.d0


def test_gen_deterministic():
    a, b = keypair(), keypair()
    assert np.array_equal(a.public.K, b.public.K)
    assert np.array_equal(a.public.y0, b.public.y0)
    assert a.s0 == b.s0 and a.e0 == b.e0 and a.d0 == b.d0


def test_hp_fair_coin():
    total = sum(keypair(bytes([s]) * 32).d0 for s in range(200))
    assert 0.3 <= total / 200 <= 0.7


def test_eval_zero():
    kp = keypair()
    z = lat.Preimage((0,), (0, 0, 0, 0), 0, 0)
    assert np.array_equal(lat.eval_f(kp.public, z), np.zeros(4, dtype=np.int64))


def test_eval_z0_gives_y0():
    kp = keypair()
    z = lat.Preimage(kp.s0, kp.e0, 0, kp.d0)
    assert np.array_equal(lat.eval_f(kp.public, z), kp.public.y0)


def test_eval_matches_schoolbook():
    kp = keypair(params=SMALL)
    p = SMALL
    src = pr.coin_source(SEED, "zs")
    for _ in range(50):
        z = lat.Preimage(tuple(src.randint(p.q) for _ in range(p.n)),
                         tuple(src.randint(2 * p.sigma + 1) - p.sigma for _ in range(p.m)),
                         src.bit(), src.bit())
        got = lat.eval_f(kp.public, z)
        # naive loop oracle
        for i in range(p.m):
            acc = sum(int(kp.public.K[i, j]) * z.s[j] for j in range(p.n)) + z.e[i]
            acc += z.c * int(kp.public.y0[i])
            if i == 0:
                acc += z.d * (p.q // 2)
            assert int(got[i]) == acc % p.q


def test_hardcore():
    assert lat.hardcore(lat.Preimage((0,), (0, 0, 0, 0), 0, 0)) == 0
    assert lat.hardcore(lat.Preimage((0,), (0, 0, 0, 0), 1, 1)) == 1


def test_invert_roundtrip_and_structure():
    kp = keypair()
    src = pr.coin_source(SEED, "rt")
    p = TINY
    for _ in range(200):
        z = lat.Preimage(tuple(src.randint(p.q) for _ in range(p.n)),
                         tuple(src.randint(2 * p.sigma + 1) - p.sigma for _ in range(p.m)),
                         src.bit(), src.bit())
        y = lat.eval_f(kp.public, z)
        try:
            x, xp = lat.invert(kp, y)
        except lat.TwoRegularityError:
            continue  # boundary collision; counted by the census tests
        assert z in (x, xp)
        assert x.c == 0 and xp.c == 1
        assert np.array_equal(lat.eval_f(kp.public, x), y)
        assert np.array_equal(lat.eval_f(kp.public, xp), y)
        # hidden-shift structure and the theta2 identity
        assert xp.d == x.d ^ kp.d0
        assert lat.hardcore(x) ^ lat.hardcore(xp) == kp.hp


def test_invert_not_in_image():
    kp = keypair()
    census = lat.image_census(kp.public)
    p = TINY
    misses = 0
    total = 0
    for y0 in range(p.q):
        for y1 in range(p.q):
            y = (y0, y1, 0, 0)
            total += 1
            if y not in census:
                misses += 1
                with pytest.raises(lat.NotInImageError):
                    lat.invert(kp, np.array(y, dtype=np.int64))
    assert misses > 0  # random y is mostly out of image at tiny params


def test_two_regularity_exhaustive():
    kp = keypair()
    rep = lat.two_regularity_report(kp.public)
    assert rep["irregular_fraction"] < 0.05
    # census counts agree with invert() on every regular image point
    census = lat.image_census(kp.public)
    for y, pres in census.items():
        if len(pres) == 2:
            x, xp = lat.invert(kp, np.array(y, dtype=np.int64))
            assert {x, xp} == set(pres)


def test_homomorphic_shift():
    kp = keypair()
    src = pr.coin_source(SEED, "hom")
    p = TINY
    for _ in range(100):
        z = lat.Preimage(tuple(src.randint(p.q) for _ in range(p.n)),
                         tuple(src.randint(2 * p.sigma + 1) - p.sigma for _ in range(p.m)),
                         0, src.bit())
        z1 = lat.Preimage(z.s, z.e, 1, z.d)
        lhs = (lat.eval_f(kp.public, z) + kp.public.y0) % p.q
        assert np.array_equal(lhs, lat.eval_f(kp.public, z1))


def test_trapdoor_completeness_small_profile():
    kp = keypair(params=SMALL)
    src = pr.coin_source(SEED, "tc")
    p = SMALL
    ok = 0
    for _ in range(1000):
        z = lat.Preimage(tuple(src.randint(p.q) for _ in range(p.n)),
                         tuple(src.randint(2 * p.sigma + 1) - p.sigma for _ in range(p.m)),
                         src.bit(), src.bit())
        y = lat.eval_f(kp.public, z)
        try:
            x, xp = lat.invert(kp, y)
        except lat.TwoRegularityError:
            # sibling's error term left the box; still must contain z among sols
            continue
        ok += 1
        assert z in (x, xp)
    assert ok > 0


def test_gadget_decode_demo_profile():
    p = DEMO
    kp = lat.gen(p, pr.coin_source(SEED, "gen-demo"))
    src = pr.coin_source(SEED, "demo-z")
    # moderate errors so gadget decoding margin holds; exercises the
    # non-exhaustive path (q**n is far beyond the search bound)
    for _ in range(10):
        z = lat.Preimage(tuple(src.randint(p.q) for _ in range(p.n)),
                         tuple(src.randint(2 * p.sigma + 1) - p.sigma for _ in range(p.m)),
                         src.bit(), src.bit())
        y = lat.eval_f(kp.public, z)
        try:
            x, xp = lat.invert(kp, y)
        except lat.NotInImageError:
            continue
        assert z in (x, xp)


def test_encode_widths_and_distinctness():
    p = TINY
    seen = set()
    for z in lat.enumerate_domain(p):
        v = lat.encode(p, z)
        assert 0 <= v < (1 << p.preimage_bits)
        assert v not in seen
        seen.add(v)
    assert len(seen) == p.domain_size


def test_public_key_serialization_roundtrip():
    kp = keypair()
    blob = kp.public.to_bytes()
    back = lat.PublicKey.from_bytes(TINY, blob)
    assert np.array_equal(back.K, kp.public.K)
    assert np.array_equal(back.y0, kp.public.y0)


def loop_census(pk):
    """Oracle coded apart from the image table: one eval_f per domain point,
    appended to a dict in enumerate_domain order."""
    census = {}
    for z in lat.enumerate_domain(pk.params):
        census.setdefault(tuple(int(v) for v in lat.eval_f(pk, z)), []).append(z)
    return census


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=32, max_size=32))
def test_image_table_matches_the_loop_census(seed):
    kp = keypair(seed)
    oracle = loop_census(kp.public)
    table = lat.image_census(kp.public)
    # same points, same first-seen order, same preimage lists in domain order
    assert list(table.items()) == list(oracle.items())
    assert list(table.values()) == list(oracle.values())
    assert list(table) == list(oracle) and len(table) == len(oracle)
    regular = {y: pres for y, pres in oracle.items() if len(pres) == 2}
    assert table.regular_points() == list(regular)
    assert table.regular_points(3) == list(regular)[:3]
    assert table.regular_hardcore_bits().tolist() == \
        [[z.d for z in pres] for pres in regular.values()]
    for y in list(oracle)[:20]:
        assert y in table and table[y] == oracle[y]
    # pair: the c-ordered pair on count-2 points, the count elsewhere
    for y, pres in oracle.items():
        if len(pres) == 2:
            assert table.pair(y) == tuple(sorted(pres, key=lambda z: z.c))
        else:
            with pytest.raises(lat.TwoRegularityError) as err:
                table.pair(y)
            assert err.value.count == len(pres)
    unhit = next(y for y in itertools.product(range(TINY.q), repeat=TINY.m)
                 if y not in oracle)
    for miss in ((TINY.q,) + (0,) * (TINY.m - 1), (0,) * (TINY.m + 1), unhit):
        assert miss not in table and table.get(miss) is None
        with pytest.raises(lat.NotInImageError) as err:
            table.pair(miss)
        assert type(err.value) is lat.NotInImageError
    hist = {}
    for pres in oracle.values():
        hist[len(pres)] = hist.get(len(pres), 0) + 1
    bad = sum(v for k, v in hist.items() if k != 2)
    assert lat.two_regularity_report(kp.public) == {
        "image_size": len(oracle), "count_histogram": hist,
        "irregular_fraction": bad / len(oracle)}
    assert lat.is_two_regular(kp.public) == (bad == 0)
    # invert (gadget or table path, by the key's margin) agrees with the oracle
    for y, pres in list(oracle.items())[:20]:
        if len(pres) == 2:
            assert lat.invert(kp, np.array(y)) == tuple(sorted(pres, key=lambda z: z.c))
        else:
            with pytest.raises(lat.TwoRegularityError):
                lat.invert(kp, np.array(y))


def test_hardcore_bits_are_the_preimages_d_bits_on_keys_of_both_d0():
    d0s = set()
    for seed in (bytes([4]) * 32, bytes([9]) * 32):
        kp = lat.gen_regular(TINY, pr.coin_source(seed, "gen"))
        census = lat.image_census(kp.public)
        want = [[z.d for z in pres] for _y, pres in census.items()]
        bits = census.regular_hardcore_bits()
        assert bits.shape == (len(census), 2) and bits.tolist() == want
        assert census.regular_points() == list(census)
        # every pair's bits differ by d0 (the hidden shift flips d)
        assert {hx ^ hxp for hx, hxp in want} == {kp.d0}
        d0s.add(kp.d0)
    assert d0s == {0, 1}


def test_regular_accessors_skip_the_irregular_points_of_a_rejected_key():
    # this seed's first gen draw is the one gen_regular rejects, and the
    # first point it sees has four preimages
    kp = keypair(bytes(32))
    assert not lat.is_two_regular(kp.public)
    oracle = loop_census(kp.public)
    assert len(next(iter(oracle.values()))) == 4
    regular = {y: pres for y, pres in oracle.items() if len(pres) == 2}
    assert 0 < len(regular) < len(oracle)
    census = lat.image_census(kp.public)
    assert census.regular_points() == list(regular)
    assert census.regular_points(5) == list(regular)[:5]
    assert census.regular_points(0) == []
    assert census.regular_hardcore_bits().tolist() == \
        [[z.d for z in pres] for pres in regular.values()]


# SHA-256 of the public key gen_regular accepts from these coins; the keys
# (and so every seeded transcript) must not move when the census changes
GOLDEN_KEYS = {
    bytes([4]) * 32: "575ae5ea1e241533fb22a4acb5b386a9033fb23398e442077ae9e8a301af6f37",
    bytes([8]) * 32: "d5b88b3781dde6eb2ced24cc9db27c1e3dffb501200e6bbd791d65352a94661a",
}


def test_gen_regular_keys_are_pinned():
    for seed, digest in GOLDEN_KEYS.items():
        kp = lat.gen_regular(TINY, pr.coin_source(seed, "gen"))
        assert hashlib.sha256(kp.public.to_bytes()).hexdigest() == digest


def test_image_table_refuses_a_domain_too_large_to_enumerate():
    kp = keypair(params=SMALL)
    with pytest.raises(lat.LatticeError, match="too large to enumerate"):
        lat.image_census(kp.public)
    with pytest.raises(lat.LatticeError, match="too large to enumerate"):
        lat.gen_regular(SMALL, pr.coin_source(SEED, "gen"))


# ------------------------------------------------- the shared image tables

def test_image_census_is_shared_per_key_across_a_byte_roundtrip():
    pk = lat.gen_regular(TINY, pr.coin_source(SEED, "gen")).public
    copy = lat.PublicKey.from_bytes(TINY, pk.to_bytes())
    assert copy is not pk
    assert lat.image_census(copy) is lat.image_census(pk)


def test_image_census_arrays_are_read_only():
    census = lat.image_census(keypair().public)
    with pytest.raises(ValueError):
        census.counts[0] = 5
    assert not any(a.flags.writeable for a in vars(census).values()
                   if isinstance(a, np.ndarray))


def test_image_census_cache_is_bounded():
    for i in range(20):
        lat.image_census(keypair(bytes([i + 40]) * 32).public)
        assert lat.image_census.cache_info().currsize <= 16
    assert lat.image_census.cache_info().currsize == 16


KEY_WORDS = TINY.m * TINY.n + TINY.m
MALFORMED_KEYS = {
    "word-over-int64": b"\xff" * (8 * KEY_WORDS),
    "not-bytes": 7,
    "words-not-reduced": (9).to_bytes(8, "little") * KEY_WORDS,
}


@pytest.mark.parametrize("payload", MALFORMED_KEYS.values(), ids=MALFORMED_KEYS.keys())
def test_public_key_from_bytes_refuses_malformed_payloads(payload):
    with pytest.raises(lat.LatticeError):
        lat.PublicKey.from_bytes(TINY, payload)
