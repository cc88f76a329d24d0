"""Trapdoor function stack for remote state preparation.

g is an injective LWE-style function with a gadget-matrix trapdoor,
K' = [A_bar ; R*A_bar + G] with G the base-2 gadget, and the 2-regular
function on top of it is

    f_k(s, e, c, d) = K'*s + e + c*y0 + d*(q/2, 0, ..., 0)^T  mod q

with public key k = (K', y0), y0 = g(s0, e0, d0), and hardcore predicate
h(s, e, c, d) = d.  For every image point the two preimages differ by the
hidden shift (s0, e0, 1, d0), so h(x) xor h(x') = d0 always: that bit is
the RSP basis bit theta2, known to the key holder from the start.

Errors live in an integer box [-sigma, sigma]^m (uniform), not a Gaussian:
the box makes the domain finite so 2-regularity is exhaustively checkable.
q is a power of two so q/2 is exact.  Security-parameter realism is a
non-goal; the profiles are sized for exact enumeration, not hardness.

Everything that needs the whole image -- the public 2-regularity check,
both simulated Bobs' sibling preimage, the exact transcript and view laws,
and inversion when the gadget margin is too tight -- reads one
ImageCensus per public key: every image of the domain formed at once by
numpy broadcasting, encoded as a base-q code and stable-sorted, so each
image point's preimages are one run of domain indices.  ImageCensus.pair
is the one lookup of an image point's preimage pair.  image_census shares
one read-only table per distinct key across the process (an LRU of the 16
most recently used keys), so a session builds each key's table once.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .primitives import CoinSource, coin_source, xor_bytes

# the largest domain an ImageCensus enumerates
_MAX_DOMAIN = 1 << 20
# the image tables image_census keeps, least recently used dropped first
_CENSUS_CACHE_SIZE = 16


class LatticeError(Exception):
    pass


class NotInImageError(LatticeError):
    """y has no preimage within the error box."""


class TwoRegularityError(NotInImageError):
    """y has preimages, but not exactly two (boundary collision)."""

    def __init__(self, count: int):
        super().__init__(f"image point has {count} preimages, expected 2")
        self.count = count


@dataclass(frozen=True)
class LatticeParams:
    n: int       # secret dimension
    m: int       # output dimension
    q: int       # modulus, power of two
    sigma0: int  # error box radius for e0 (may be 0: exact hidden shift)
    sigma: int   # error box radius for e

    def __post_init__(self):
        if self.q < 8 or self.q & (self.q - 1):
            raise LatticeError("q must be a power of two, at least 8")
        if self.n < 1 or self.m < self.n * self.log2q:
            raise LatticeError("need m >= n*log2(q)")
        if not (0 <= self.sigma0 <= self.sigma) or self.sigma < 1:
            raise LatticeError("need 0 <= sigma0 <= sigma, sigma >= 1")

    @property
    def log2q(self) -> int:
        return self.q.bit_length() - 1

    @property
    def gadget_rows(self) -> int:
        return self.n * self.log2q

    @property
    def e_bits(self) -> int:
        return max(1, math.ceil(math.log2(2 * self.sigma + 1)))

    @property
    def preimage_bits(self) -> int:
        """Width W of encode(): s limbs, offset-coded e, then c, then d."""
        return self.n * self.log2q + self.m * self.e_bits + 2

    @property
    def domain_size(self) -> int:
        return self.q ** self.n * (2 * self.sigma + 1) ** self.m * 4


@dataclass(frozen=True)
class Preimage:
    s: tuple  # in Z_q^n
    e: tuple  # in [-sigma, sigma]^m
    c: int
    d: int


@dataclass(frozen=True)
class PublicKey:
    params: LatticeParams
    K: np.ndarray   # m x n over Z_q
    y0: np.ndarray  # length m over Z_q

    def to_bytes(self) -> bytes:
        """K row-major, then y0, each entry 8 bytes little-endian.  The
        params are not included: both parties already hold them."""
        body = b"".join(int(v).to_bytes(8, "little") for v in self.K.reshape(-1))
        body += b"".join(int(v).to_bytes(8, "little") for v in self.y0)
        return body

    @staticmethod
    def from_bytes(params: LatticeParams, data: bytes) -> "PublicKey":
        """The inverse of to_bytes.  Raises LatticeError unless data is
        bytes of the exact length with every word reduced mod q, so a peer's
        key is either canonical or refused."""
        count = params.m * params.n + params.m
        if not isinstance(data, bytes) or len(data) != 8 * count:
            raise LatticeError("public key is not bytes of the expected length")
        words = np.frombuffer(data, "<u8")
        if np.any(words >= params.q):
            raise LatticeError("public key entry not reduced mod q")
        words = words.astype(np.int64)
        K = words[:params.m * params.n].reshape(params.m, params.n)
        return PublicKey(params, K, words[params.m * params.n:])


@dataclass(frozen=True)
class TrapdoorKeypair:
    public: PublicKey
    R: np.ndarray   # gadget trapdoor: K = [A_bar ; R A_bar + G]
    s0: tuple
    e0: tuple
    d0: int

    @property
    def params(self) -> LatticeParams:
        return self.public.params

    @property
    def hp(self) -> int:
        return self.d0

    @property
    def z0(self) -> tuple:
        return (self.s0, self.e0, self.d0)


def _gadget_matrix(params: LatticeParams) -> np.ndarray:
    k = params.log2q
    G = np.zeros((params.gadget_rows, params.n), dtype=np.int64)
    for j in range(params.n):
        for i in range(k):
            G[j * k + i, j] = 1 << i
    return G


def _half_vector(params: LatticeParams) -> np.ndarray:
    u = np.zeros(params.m, dtype=np.int64)
    u[0] = params.q // 2
    return u


def gen(params: LatticeParams, randomness: CoinSource) -> TrapdoorKeypair:
    w = params.gadget_rows
    slack = params.m - w
    A_bar = np.array([[randomness.randint(params.q) for _ in range(params.n)]
                      for _ in range(slack)], dtype=np.int64).reshape(slack, params.n)
    R = np.array([[randomness.randint(3) - 1 for _ in range(slack)]
                  for _ in range(w)], dtype=np.int64).reshape(w, slack)
    G = _gadget_matrix(params)
    K = np.vstack([A_bar, (R @ A_bar + G) % params.q])
    s0 = tuple(randomness.randint(params.q) for _ in range(params.n))
    e0 = tuple(randomness.randint(2 * params.sigma0 + 1) - params.sigma0
               for _ in range(params.m))
    d0 = randomness.bit()
    public = PublicKey(params, K, np.zeros(params.m, dtype=np.int64))
    y0 = eval_f(public, Preimage(s0, e0, 0, d0))
    public = PublicKey(params, K, y0)
    return TrapdoorKeypair(public, R, s0, e0, d0)


def is_two_regular(pk: PublicKey) -> bool:
    """Public exact check that every image point has exactly two preimages."""
    return bool(np.all(image_census(pk).counts == 2))


def gen_regular(params: LatticeParams, randomness: CoinSource,
                max_tries: int = 64) -> TrapdoorKeypair:
    """Rejection-sampled gen: random keys occasionally collide at desk-scale
    parameters, so honest parties redraw until the public 2-regularity check
    passes.  Deterministic in the coin stream, so a verifier rerunning it
    from the same coins lands on the same key."""
    for _ in range(max_tries):
        kp = gen(params, randomness)
        if is_two_regular(kp.public):
            return kp
    raise LatticeError("no 2-regular key within the retry budget")


def gen_from_shares(params: LatticeParams, share_a: bytes,
                    share_b: bytes) -> TrapdoorKeypair:
    """The coin-tossed key: gen_regular on the XOR of the two parties' coin
    shares.  Alice derives her key this way; the key-generation relation
    and the extractor re-derive it from her escrowed share."""
    return gen_regular(params, coin_source(xor_bytes(share_a, share_b), "gen"))


def eval_f(key: PublicKey | TrapdoorKeypair, z: Preimage) -> np.ndarray:
    pk = key.public if isinstance(key, TrapdoorKeypair) else key
    p = pk.params
    if len(z.s) != p.n or len(z.e) != p.m:
        raise LatticeError("preimage dimension mismatch")
    if any(abs(v) > p.sigma for v in z.e):
        raise LatticeError("error outside box")
    s = np.array(z.s, dtype=np.int64)
    e = np.array(z.e, dtype=np.int64)
    return (pk.K @ s + e + z.c * pk.y0 + z.d * _half_vector(p)) % p.q


def hardcore(z: Preimage) -> int:
    return z.d


def _centered(v: np.ndarray, q: int) -> np.ndarray:
    """Lift Z_q to the centered representatives [-q/2, q/2)."""
    v = v % q
    return np.where(v >= q // 2, v - q, v)


def _gadget_margin(kp: TrapdoorKeypair) -> int:
    """Worst-case infinity norm of T e for e in the box, T = [-R | I]."""
    row_l1 = 1 + (np.sum(np.abs(kp.R), axis=1).max() if kp.R.size else 0)
    return int(kp.params.sigma * row_l1)


def _decode_g(kp: TrapdoorKeypair, t: np.ndarray) -> list[tuple[tuple, tuple]]:
    """Gadget decoding: the (s, e) with K s + e = t mod q and e inside the
    box, if any.  Sound only while T e cannot flip a limb's rounding."""
    p = kp.params
    w = p.gadget_rows
    T = np.hstack([-kp.R, np.eye(w, dtype=np.int64)])
    v = (T @ t) % p.q
    k = p.log2q
    powers = np.array([1 << i for i in range(k)], dtype=np.int64)
    cands = np.arange(p.q, dtype=np.int64)
    s = []
    for j in range(p.n):
        limbs = v[j * k:(j + 1) * k]
        errs = np.abs(_centered(limbs[None, :] - cands[:, None] * powers[None, :], p.q))
        s.append(int(np.argmin(errs.max(axis=1))))
    e = _centered(t - kp.public.K @ np.array(s, dtype=np.int64), p.q)
    if np.all(np.abs(e) <= p.sigma):
        return [(tuple(s), tuple(int(x) for x in e))]
    return []


def invert(kp: TrapdoorKeypair, y: np.ndarray) -> tuple[Preimage, Preimage]:
    """Both preimages of y under f_k, c=0 branch first.

    Gadget decoding per (c, d) branch when its margin holds; otherwise the
    pair is read off the image table (ImageCensus.pair).  Raises
    NotInImageError when none exist, TwoRegularityError when the count is
    not exactly 2 (boundary collision -- reported, never hidden).
    """
    p = kp.params
    y = np.asarray(y, dtype=np.int64) % p.q
    if _gadget_margin(kp) > p.q // 4 - 1:
        return image_census(kp.public).pair(y)
    half = _half_vector(p)
    sols = [Preimage(s, e, c, d) for c in (0, 1) for d in (0, 1)
            for s, e in _decode_g(kp, (y - c * kp.public.y0 - d * half) % p.q)]
    if not sols:
        raise NotInImageError("no preimage within the error box")
    if len(sols) != 2:
        raise TwoRegularityError(len(sols))
    sols.sort(key=lambda z: z.c)
    return sols[0], sols[1]


def encode(params: LatticeParams, z: Preimage) -> int:
    """Canonical preimage bit encoding, LSB first: s limbs (log2 q bits each,
    little-endian), then each e coordinate offset by sigma (e_bits each),
    then c, then d.  Both parties must agree: theta1 depends on the inner
    product <w, encode(x) xor encode(x')>."""
    p = params
    out = 0
    pos = 0
    for sv in z.s:
        out |= (int(sv) % p.q) << pos
        pos += p.log2q
    for ev in z.e:
        out |= (int(ev) + p.sigma) << pos
        pos += p.e_bits
    out |= (z.c & 1) << pos
    pos += 1
    out |= (z.d & 1) << pos
    return out


def enumerate_domain(params: LatticeParams):
    ebox = range(-params.sigma, params.sigma + 1)
    for s in itertools.product(range(params.q), repeat=params.n):
        for e in itertools.product(ebox, repeat=params.m):
            for c in (0, 1):
                for d in (0, 1):
                    yield Preimage(s, e, c, d)


def _box(dim: int, lo: int, hi: int) -> np.ndarray:
    """Every vector of [lo, hi]^dim as rows, in itertools.product order."""
    side = hi - lo + 1
    return np.indices((side,) * dim, dtype=np.int64).reshape(dim, -1).T + lo


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True)
class _DomainTables:
    """The key-independent parts of every ImageCensus of one LatticeParams."""
    S: np.ndarray        # Z_q^n as rows
    E: np.ndarray        # the error box as rows
    s_rows: list
    e_rows: list
    half: np.ndarray     # (q/2, 0, ..., 0)
    weights: np.ndarray  # q^i, the base-q code of an image point
    code_dtype: type     # the smallest of int16/int32/int64 holding q^m


@functools.lru_cache(maxsize=_CENSUS_CACHE_SIZE)
def _domain_tables(p: LatticeParams) -> _DomainTables:
    S = _box(p.n, 0, p.q - 1)
    E = _box(p.m, -p.sigma, p.sigma)
    half = _half_vector(p)
    weights = p.q ** np.arange(p.m, dtype=np.int64)
    _read_only(S, E, half, weights)
    code_dtype = next(t for t in (np.int16, np.int32, np.int64)
                      if p.q ** p.m <= np.iinfo(t).max)
    return _DomainTables(S, E, list(map(tuple, S.tolist())),
                         list(map(tuple, E.tolist())), half, weights, code_dtype)


class ImageCensus(Mapping):
    """Read-only exact image table of f_k: image point -> preimage list.

    Every image K*s + e + c*y0 + d*(q/2)e_1 is formed at once by
    broadcasting over the domain in enumerate_domain order (s outer, then
    e, then c, then d), encoded as the base-q code sum_i y_i q^i, and the
    codes are stable-sorted with their domain indices, so each image
    point's preimages are one run of ascending domain indices.  Iteration
    is in first-seen domain order and each preimage list in domain order,
    exactly as a dict filled by walking enumerate_domain.  A lookup
    binary-searches the sorted codes, and Preimage objects are built only
    for the points looked up; pair(y) is the lookup of a point's two
    preimages, and regular_points/regular_hardcore_bits read the
    two-preimage points and their d bits off the arrays.  `counts` holds
    each point's preimage count in iteration order.  Raises LatticeError
    on a domain too large to enumerate (codes then stay below q^m < 2^63).

    The codes are held in the smallest of int16, int32 and int64 that holds
    q^m, so the stable sort is numpy's radix sort where q^m fits 16 bits
    (tiny: 8^4 = 4096).  One table serves every caller holding its key (see
    image_census), so `counts` and every internal array are read-only."""

    def __init__(self, pk: PublicKey):
        p = pk.params
        if p.domain_size > _MAX_DOMAIN:
            raise LatticeError("domain too large to enumerate")
        self._params = p
        t = _domain_tables(p)
        shifts = np.array([c * pk.y0 + d * t.half for c in (0, 1) for d in (0, 1)])
        # q is a power of two, so & (q - 1) is the reduction mod q
        images = ((t.S @ pk.K.T)[:, None, None, :] + t.E[None, :, None, :]
                  + shifts[None, None, :, :]) & (p.q - 1)
        self._s_rows, self._e_rows = t.s_rows, t.e_rows
        self._weights = t.weights
        codes = (images.reshape(-1, p.m) @ self._weights).astype(t.code_dtype)
        self._order = np.argsort(codes, kind="stable")
        sorted_codes = codes[self._order]
        self._starts = np.flatnonzero(
            np.concatenate(([True], sorted_codes[1:] != sorted_codes[:-1])))
        self._codes = sorted_codes[self._starts]
        self._counts = np.diff(self._starts, append=codes.size)
        # code-order point indices, by the domain index each is first seen at
        self._seen = np.argsort(self._order[self._starts], kind="stable")
        self.counts = self._counts[self._seen]
        _read_only(self._order, self._starts, self._codes, self._counts,
                   self._seen, self.counts)

    def _find(self, y) -> int:
        """Code-order index of image point y, or -1 when y is not an image."""
        v = np.asarray(y)
        p = self._params
        if v.shape != (p.m,) or v.dtype.kind not in "iu" or np.any((v < 0) | (v >= p.q)):
            return -1
        code = int(v @ self._weights)
        i = int(np.searchsorted(self._codes, code))
        return i if i < self._codes.size and self._codes[i] == code else -1

    def _preimages(self, i: int) -> list[Preimage]:
        out = []
        start = self._starts[i]
        for k in self._order[start:start + self._counts[i]].tolist():
            rest, cd = divmod(k, 4)
            s, e = divmod(rest, len(self._e_rows))
            out.append(Preimage(self._s_rows[s], self._e_rows[e], cd >> 1, cd & 1))
        return out

    def pair(self, y) -> tuple[Preimage, Preimage]:
        """y's two preimages, c = 0 first.  Raises NotInImageError when y has
        no preimage, TwoRegularityError when it has other than two."""
        i = self._find(y)
        if i < 0:
            raise NotInImageError("no preimage within the error box")
        if self._counts[i] != 2:
            raise TwoRegularityError(int(self._counts[i]))
        x, xp = self._preimages(i)
        return (x, xp) if x.c <= xp.c else (xp, x)

    def regular_hardcore_bits(self) -> np.ndarray:
        """(points, 2) hardcore bits d of the two-preimage points, in
        iteration order, each row in domain order: read off the domain
        indices (d = index & 1), with no Preimage built."""
        starts = self._starts[self._seen][self.counts == 2]
        return self._order[np.stack((starts, starts + 1), axis=1)] & 1

    def regular_points(self, k: int | None = None) -> list[tuple]:
        """The first k two-preimage points in iteration order (all of them
        when k is None), decoded from their codes only."""
        return self._decode(self._seen[self.counts == 2][:k])

    def _decode(self, points) -> list[tuple]:
        # each point's base-q digits, read off its code
        codes = self._codes[points].astype(np.int64)
        return list(map(tuple, (codes[:, None] // self._weights % self._params.q).tolist()))

    def __getitem__(self, y) -> list[Preimage]:
        i = self._find(y)
        if i < 0:
            raise KeyError(y)
        return self._preimages(i)

    def __iter__(self):
        return iter(self._decode(self._seen))

    def __len__(self) -> int:
        return self._codes.size


@functools.lru_cache(maxsize=_CENSUS_CACHE_SIZE)
def _shared_census(params: LatticeParams, K: bytes, y0: bytes) -> ImageCensus:
    return ImageCensus(PublicKey(params,
                                 np.frombuffer(K, np.int64).reshape(params.m, params.n),
                                 np.frombuffer(y0, np.int64)))


def image_census(pk: PublicKey) -> ImageCensus:
    """The exact image table of pk (see ImageCensus): every image point in
    first-seen domain order, mapped to its preimages in domain order.

    One read-only table is shared per distinct key (params, K, y0) across
    the process: the 16 most recently used are kept, and
    image_census.cache_info() reports the hits and misses.  A key decoded
    by PublicKey.from_bytes gets the same table as the key it was encoded
    from.  This is simulation plumbing, not a trapdoor: it only needs the
    public key, and the domain must be small enough to walk."""
    return _shared_census(pk.params, pk.K.astype(np.int64, copy=False).tobytes(),
                          pk.y0.astype(np.int64, copy=False).tobytes())


image_census.cache_info = _shared_census.cache_info
image_census.cache_clear = _shared_census.cache_clear


def two_regularity_report(pk: PublicKey) -> dict:
    """Exact preimage-count histogram over the image, read from the table's
    counts (no preimage is built); histogram keys in first-seen order."""
    census = image_census(pk)
    values, first, number = np.unique(census.counts, return_index=True,
                                      return_counts=True)
    counts = {int(values[j]): int(number[j]) for j in np.argsort(first)}
    image_size = len(census)
    bad = sum(v for k, v in counts.items() if k != 2)
    return {
        "image_size": image_size,
        "count_histogram": counts,
        "irregular_fraction": bad / image_size if image_size else 0.0,
    }
