"""Measurement-based computation scaffolding: brickwork patterns, flow
dependencies, blind-angle arithmetic, the graph-state builder, and the
exact adaptive walk behind both the plain reference law and the blinded
law (harness.q2pc_blinded_law_exact).  The walk holds every measurement
branch at once, one row per outcome history (qsim.split_branches), so an
n x m pattern costs n*m vectorized steps over at most 2^(n*m) amplitudes
each.  circuit_model_law, the independent oracle, does not use it: it
builds its circuit state gate by gate with qsim.apply_gate and reads its
Z law straight off the amplitudes.

entangled_graph_state is the one CZ graph-state build: the grid states of
both laws and of blind evaluation's Bob, and OQFE Bob's 3-qubit chain
(protocols.oqfe_bob_state, a 1 x 3 pattern).  It forms the product state
and then applies every CZ at once as one diagonal sign flip.

A pattern is an n x m grid measured column-major, every site in the (X,Y)
plane.  Column 0 is the input column (the input state itself, measured at
fixed public angle 0, i.e. the X basis); columns 1..m-1 carry |+> qubits;
the corrected outcomes of column m-1 are the computation's output bits.
Graph edges: horizontal neighbors on every wire, plus vertical CZ "bridges"
at listed (row, column) sites.  An in-plane measurement at angle a of state
chi is distributed as M_Z(H Rz(-a) chi), so each measured column teleports
H Rz(-phi) down the wire and a 1 x 2 all-zero pattern is an identity wire:
M_Z(H Rz(0) H psi) = M_Z(psi).

Flow dependencies (hand-derived per pattern, f(i,j) = (i,j+1)):
    x_dep(i,j) = {(i, j-1)}
    z_dep(i,j) = {(i, j-2)} + {(i', j-1) for bridge partners i' at column j}
The bridge term is the X-correction of the previous column pushed through
the vertical CZ.  Blind-angle arithmetic, in Angle8 units of pi/4:
    phi' = (-1)^sX * phi + 4*sZ
    delta = phi' + theta + 4*r
flow_bits and blind_delta are the one coding of this flow.  They read the
corrected outcomes as one history integer (the latest site in the lowest
bit) or as one such integer per branch row, so Alice's protocol loop, the
ZK blind-angle relation and the exact walk share them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import qsim
from .qsim import Angle8, StateVector

PATTERN_FORMAT_VERSION = 1


class MbqcError(Exception):
    pass


@dataclass(frozen=True)
class BrickworkPattern:
    n: int
    m: int
    phi: tuple            # n rows x m columns of Angle8
    bridges: tuple = ()   # (row, column) pairs: CZ between (row,col),(row+1,col)
    input_rows: int = 0   # Bob-owned first-layer qubits (0 = whole column)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise MbqcError("pattern dimensions must be positive")
        if len(self.phi) != self.n or any(len(r) != self.m for r in self.phi):
            raise MbqcError("phi matrix shape mismatch")
        norm = tuple(tuple(Angle8(a) for a in row) for row in self.phi)
        object.__setattr__(self, "phi", norm)
        for i in range(self.n):
            if int(self.phi[i][0]) != 0:
                raise MbqcError("input column must be measured at angle 0")
        for (i, j) in self.bridges:
            if not (0 <= i < self.n - 1 and 0 <= j < self.m):
                raise MbqcError(f"bridge {(i, j)} out of range")
        object.__setattr__(self, "bridges", tuple(tuple(b) for b in self.bridges))
        rows = self.input_rows or self.n
        if rows != self.n:
            raise MbqcError("partial input columns not supported")
        object.__setattr__(self, "input_rows", rows)

    def sites(self):
        """Column-major measurement order."""
        return [(i, j) for j in range(self.m) for i in range(self.n)]

    def bridge_partners(self, i: int, j: int) -> list:
        out = []
        for (bi, bj) in self.bridges:
            if bj == j:
                if bi == i:
                    out.append(i + 1)
                elif bi + 1 == i:
                    out.append(bi)
        return out

    def x_dep(self, site) -> tuple:
        i, j = site
        return ((i, j - 1),) if j >= 1 else ()

    def z_dep(self, site) -> tuple:
        i, j = site
        deps = []
        if j >= 2:
            deps.append((i, j - 2))
        for ip in self.bridge_partners(i, j):
            if j >= 1:
                deps.append((ip, j - 1))
        return tuple(deps)


def blind_delta(phi, sX, sZ, theta=0, r=0):
    """The blind angle delta = (-1)^sX * phi + 4*sZ + theta + 4*r in Angle8
    units; theta = r = 0 gives the corrected angle phi'.  An Angle8 for int
    bits; an int array mod 8 for bit arrays with one entry per branch row."""
    phi = int(phi)
    delta = (phi + int(theta) + 4 * (r & 1)
             - 2 * phi * (sX & 1) + 4 * (sZ & 1))
    return delta & 7 if isinstance(delta, np.ndarray) else Angle8(delta)


def flow_bits(pattern: BrickworkPattern, k: int, s_bar):
    """(sX, sZ) of the k-th site in measurement order, read off the
    corrected outcomes s_bar of the sites before it: site l sits at bit
    k-1-l (column-major site (i, j) is site l = j*n + i, and every
    dependency precedes its site).  s_bar is an int for one run or an int
    array with one entry per branch row; the bits come back alike."""
    n = pattern.n
    site = (k % n, k // n)

    def parity(deps):
        bits = s_bar & 0   # 0, or a fresh zero array shaped like s_bar
        for (i, j) in deps:
            bits ^= s_bar >> (k - 1 - (j * n + i))
        return bits & 1
    return parity(pattern.x_dep(site)), parity(pattern.z_dep(site))


def output_bits(n: int, s_bar: int) -> tuple:
    """Output row bits (row 0..n-1) of a finished history: the output
    column is measured last, so row i is bit n-1-i of s_bar."""
    return tuple((s_bar >> (n - 1 - i)) & 1 for i in range(n))


def _check_graph(n: int, m: int, input_width: int) -> None:
    """An n x m grid fits an input of input_width qubits and the dense
    budget."""
    if input_width != n:
        raise MbqcError("input state width does not match pattern rows")
    if n * m > qsim.MAX_DENSE_QUBITS:
        raise MbqcError("pattern exceeds dense qubit budget")


def entangled_graph_state(pattern: BrickworkPattern,
                          input_state: StateVector,
                          prepared: dict | None = None) -> StateVector:
    """Full grid state: the input column, then each non-input site's qubit
    column by column (prepared[(i, j)], default |+>), then a CZ per graph
    edge: one on every wire between neighbouring columns, and one per
    listed bridge.  Site (i, j) sits at qubit index j*n + i.

    The product is taken factor by factor in qsim.tensor's order (each
    new qubit the high-index factor), so its floats are tensor's.  The
    CZs are diagonal and commute, so they are applied at once: every
    amplitude whose index sets both ends of an odd number of edges is
    negated, which is exact."""
    _check_graph(pattern.n, pattern.m, input_state.num_qubits)
    n, m = pattern.n, pattern.m
    plus = qsim.plus_state().amplitudes
    amps = input_state.amplitudes
    for site in pattern.sites()[n:]:
        factor = plus if prepared is None else prepared[site].amplitudes
        amps = np.multiply.outer(factor, amps).reshape(-1)
    edges = [(j * n + i, (j + 1) * n + i) for j in range(m - 1) for i in range(n)]
    edges += [(j * n + i, j * n + i + 1) for (i, j) in pattern.bridges]
    odd = np.zeros((2,) * (n * m), dtype=bool)   # axis -1-q holds qubit q
    for edge in edges:
        both = [slice(None)] * (n * m)
        for q in edge:
            both[-1 - q] = 1
        odd[tuple(both)] ^= True
    return StateVector(n * m, np.where(odd.reshape(-1), -amps, amps))


def _branch_law(pattern: BrickworkPattern, state: StateVector,
                thetas: dict, r_mask: dict) -> dict:
    """Exact output-bitstring law {(bits row 0..n-1): prob} of the adaptive
    measurement walk over a built graph state.  The input column is
    measured unblinded; every other site s at delta(phi', thetas[s],
    r_mask[s]), its outcome unmasked by r_mask[s].

    All branches are walked at once, site by site (qsim.split_branches):
    row k holds the branch whose raw outcomes are the bits of history[k],
    so each row's corrected outcomes are history ^ r_bits, and flow_bits
    and blind_delta give every row's delta at once.  Column-major order
    makes the pending site live qubit 0 of every row."""
    amps = state.amplitudes.reshape(1, -1)
    history = np.zeros(1, dtype=np.int64)
    r_bits = 0   # r of each measured site, laid out as in history
    for k, (i, j) in enumerate(pattern.sites()):
        sX, sZ = flow_bits(pattern, k, history ^ r_bits)
        theta = r = 0
        if j > 0:
            theta, r = thetas[i, j], r_mask[i, j] & 1
        delta = blind_delta(pattern.phi[i][j], sX, sZ, theta, r)
        amps, history = qsim.split_branches(amps, history, 0, delta)
        r_bits = (r_bits << 1) | r
    keys = (history ^ r_bits) & ((1 << pattern.n) - 1)
    probs = amps[:, 0].real ** 2 + amps[:, 0].imag ** 2
    totals = np.bincount(keys, weights=probs, minlength=1 << pattern.n)
    _, first = np.unique(keys, return_index=True)
    law = {output_bits(pattern.n, key): float(totals[key])
           for key in keys[np.sort(first)].tolist()}   # in order of first branch
    if abs(sum(law.values()) - 1.0) > 1e-9:
        raise MbqcError("branch probabilities do not sum to 1")
    return law


def reference_evaluate(pattern: BrickworkPattern,
                       input_state: StateVector) -> dict:
    """Exact output-bitstring law of the plain (theta=0, r=0) pattern,
    {(bits row 0..n-1): prob}, by adaptive branch enumeration."""
    zero = dict.fromkeys(pattern.sites()[pattern.n:], 0)
    return _branch_law(pattern, entangled_graph_state(pattern, input_state),
                       zero, zero)


def circuit_model_law(pattern: BrickworkPattern,
                      input_state: StateVector) -> dict:
    """Independent oracle: the pattern's logical circuit, column by column
    (bridge CZs, then per-wire Rz(-phi) and H), then an exact Z law."""
    state = input_state
    for j in range(pattern.m):
        for (bi, bj) in pattern.bridges:
            if bj == j:
                state = qsim.apply_gate(state, "CZ", (bi, bi + 1))
        for i in range(pattern.n):
            state = qsim.apply_gate(state, ("RZ", -pattern.phi[i][j]), i)
            state = qsim.apply_gate(state, "H", i)
    # Z law straight from the amplitudes; qubit i is bit i of the index
    law: dict[tuple, float] = {}
    for bits in itertools.product((0, 1), repeat=pattern.n):
        amp = state.amplitudes[sum(b << i for i, b in enumerate(bits))]
        p = float(amp.real ** 2 + amp.imag ** 2)
        if p >= qsim._DEGENERATE_TOL:
            law[bits] = p
    return law


# --------------------------------------------------------- pattern library

def identity_pattern() -> BrickworkPattern:
    return BrickworkPattern(1, 2, ((Angle8(0), Angle8(0)),))


def hadamard_pattern() -> BrickworkPattern:
    return BrickworkPattern(1, 1, ((Angle8(0),),))


def rx_teleport_pattern(phi: Angle8) -> BrickworkPattern:
    """Output law M_Z(Rx(-phi) psi), the one-bit-teleportation chain: the
    input column contributes H, the final column H Rz(-phi)."""
    return BrickworkPattern(1, 2, ((Angle8(0), Angle8(phi)),))


def rz_pattern(phi: Angle8) -> BrickworkPattern:
    """Output law M_Z(H Rz(-phi) psi): an identity wire then a phi column."""
    return BrickworkPattern(1, 3, ((Angle8(0), Angle8(0), Angle8(phi)),))


def brick_pattern(phi_top: Angle8, phi_bot: Angle8) -> BrickworkPattern:
    """Two wires with one vertical CZ bridge: the brickwork universality cell."""
    return BrickworkPattern(
        2, 2,
        ((Angle8(0), Angle8(phi_top)), (Angle8(0), Angle8(phi_bot))),
        bridges=((0, 1),))


PATTERN_LIBRARY = {
    "identity": identity_pattern,
    "hadamard": hadamard_pattern,
    "rx_teleport": rx_teleport_pattern,
    "rz": rz_pattern,
    "brick": brick_pattern,
}


def pattern_to_json(pattern: BrickworkPattern) -> str:
    return json.dumps({
        "format": PATTERN_FORMAT_VERSION,
        "n": pattern.n,
        "m": pattern.m,
        "phi": [[int(a) for a in row] for row in pattern.phi],
        "bridges": [list(b) for b in pattern.bridges],
        "input_rows": pattern.input_rows,
    }, indent=None, sort_keys=True)


def pattern_from_json(text: str) -> BrickworkPattern:
    """Parse pattern_to_json output; raises MbqcError on anything else."""
    try:
        data = json.loads(text)
    except ValueError:
        raise MbqcError("pattern file is not JSON") from None
    if not isinstance(data, dict) or data.get("format") != PATTERN_FORMAT_VERSION:
        raise MbqcError("unsupported pattern format version")
    n, m, phi = data.get("n"), data.get("m"), data.get("phi")
    bridges, input_rows = data.get("bridges", []), data.get("input_rows", 0)
    if not (_int_rows([[n, m, input_rows]]) and _int_rows(phi) and _int_rows(bridges)
            and all(len(b) == 2 for b in bridges)):
        raise MbqcError("a pattern needs integers n, m and input_rows, integer "
                        "angle rows phi and [row, column] bridges")
    return BrickworkPattern(n, m, phi, bridges, input_rows)


def _int_rows(value) -> bool:
    """A list of lists of JSON integers (booleans excluded)."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in value)
