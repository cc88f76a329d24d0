"""Measurement-based computation scaffolding: brickwork patterns, flow
dependencies, blind-angle arithmetic, the graph-state builder, and the
exact adaptive branch walk behind both the plain reference law and the
blinded law (harness.q2pc_blinded_law_exact).

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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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

    def output_sites(self) -> tuple:
        return tuple((i, self.m - 1) for i in range(self.n))


@dataclass
class OutcomeBoard:
    raw: dict = field(default_factory=dict)     # site -> s'
    s_bar: dict = field(default_factory=dict)   # site -> corrected outcome

    def record(self, site, raw_bit: int, r: int = 0):
        if site in self.raw:
            raise MbqcError(f"site {site} measured twice")
        self.raw[site] = raw_bit
        self.s_bar[site] = raw_bit ^ r

    def forget(self, site):
        del self.raw[site]
        del self.s_bar[site]


def compute_phi_prime(phi: Angle8, sX: int, sZ: int) -> Angle8:
    base = -Angle8(phi) if sX else Angle8(phi)
    return base + Angle8(4 * (sZ & 1))


def compute_delta(phi_prime: Angle8, theta: Angle8, r: int) -> Angle8:
    return Angle8(phi_prime) + Angle8(theta) + Angle8(4 * (r & 1))


def accumulate_dependencies(board: OutcomeBoard, pattern: BrickworkPattern,
                            site) -> tuple[int, int]:
    sX = sZ = 0
    for dep in pattern.x_dep(site):
        if dep not in board.s_bar:
            raise MbqcError(f"dependency {dep} of {site} not yet measured")
        sX ^= board.s_bar[dep]
    for dep in pattern.z_dep(site):
        if dep not in board.s_bar:
            raise MbqcError(f"dependency {dep} of {site} not yet measured")
        sZ ^= board.s_bar[dep]
    return sX, sZ


def _check_graph(pattern: BrickworkPattern, input_width: int) -> None:
    """The grid fits an input of input_width qubits and the dense budget."""
    if input_width != pattern.n:
        raise MbqcError("input state width does not match pattern rows")
    if pattern.n * pattern.m > qsim.MAX_DENSE_QUBITS:
        raise MbqcError("pattern exceeds dense qubit budget")


def entangled_graph_state(pattern: BrickworkPattern,
                          input_state: StateVector,
                          prepared: dict | None = None) -> StateVector:
    """Full grid state: the input column, then each non-input site's qubit
    column by column (prepared[(i, j)], default |+>), then a CZ per graph
    edge: the horizontal wires first, then the bridges in listed order.
    Site (i, j) sits at qubit index j*n + i."""
    _check_graph(pattern, input_state.num_qubits)
    n, m = pattern.n, pattern.m
    state = input_state
    for site in pattern.sites()[n:]:
        state = qsim.tensor(state, qsim.plus_state() if prepared is None
                            else prepared[site])
    for j in range(m - 1):
        for i in range(n):
            state = qsim.apply_gate(state, "CZ", (j * n + i, (j + 1) * n + i))
    for (i, j) in pattern.bridges:
        state = qsim.apply_gate(state, "CZ", (j * n + i, j * n + i + 1))
    return state


def _branch_law(pattern: BrickworkPattern, state: StateVector,
                thetas: dict, r_mask: dict) -> dict:
    """Exact output-bitstring law {(bits row 0..n-1): prob} of the adaptive
    measurement walk over a built graph state, by branch enumeration.  The
    input column is measured unblinded; every other site s at
    delta(phi', thetas[s], r_mask[s]), its outcome unmasked by r_mask[s]."""
    sites = pattern.sites()
    law: dict[tuple, float] = {}
    board = OutcomeBoard()

    def walk(st: StateVector, idx: int, prob: float):
        if idx == len(sites):
            key = tuple(board.s_bar[s] for s in pattern.output_sites())
            law[key] = law.get(key, 0.0) + prob
            return
        site = sites[idx]
        sX, sZ = accumulate_dependencies(board, pattern, site)
        angle = compute_phi_prime(pattern.phi[site[0]][site[1]], sX, sZ)
        r = 0
        if site[1] > 0:
            r = r_mask[site]
            angle = compute_delta(angle, thetas[site], r)
        # column-major order means the pending site is always live index 0
        for outcome, (p, post) in enumerate(qsim.branch_in_plane(st, 0, angle)):
            if post is None:
                continue
            board.record(site, outcome, r)
            walk(post, idx + 1, prob * p)
            board.forget(site)

    walk(state, 0, 1.0)
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
    plan = [(i, "Z") for i in range(pattern.n)]
    law: dict[tuple, float] = {}
    for br in qsim.enumerate_branches(state, plan):
        if not br.impossible:
            law[br.outcomes] = law.get(br.outcomes, 0.0) + br.probability
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
    data = json.loads(text)
    if data.get("format") != PATTERN_FORMAT_VERSION:
        raise MbqcError("unsupported pattern format version")
    return BrickworkPattern(
        data["n"], data["m"],
        tuple(tuple(Angle8(a) for a in row) for row in data["phi"]),
        tuple(tuple(b) for b in data.get("bridges", [])),
        data.get("input_rows", 0))
