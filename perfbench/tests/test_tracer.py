"""Self-test of the benchmark's tracer and oracle accounting.

    python3 -m pytest perfbench/tests -q

Three fixed sessions must give exact structural counts; a wrong oracle
and a raising operation must both show up as failed operations.
"""

import collections
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

from q2pc import channel, compilers, mbqc, primitives, protocols, qsim, rsp, zk  # noqa: E402
from q2pc.primitives import sha256  # noqa: E402
from q2pc.profiles import get_profile  # noqa: E402
from q2pc.qsim import Angle8  # noqa: E402

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

PARAMS = get_profile("tiny").params


def traced_counts(session) -> dict:
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        session()
    finally:
        tracer.uninstall()
    tracer.account_channel()
    calls = collections.Counter(span[2] for span in tracer.spans)
    return {
        "lattice.gen_regular.calls": calls["lattice.gen_regular"],
        "lattice.invert.calls": calls["lattice.invert"],
        "rsp.bob.calls": sum(calls[f] for f in tracer_mod.RSP_BOB_FNS),
        "zk.verify.calls": calls["zk.verify"],
        "channel.messages": tracer.counters["channel.messages"],
    }


def test_semi_honest_oqfe_counts():
    counts = traced_counts(lambda: protocols.oqfe_run(
        0, qsim.basis_state(1, 0), PARAMS, sha256(b"selftest-sh"), "sh",
        rsp.rsp_bob_quantum, zk.ZkAuthority()))
    assert counts["lattice.gen_regular.calls"] == 1
    assert counts["lattice.invert.calls"] == 1
    assert counts["rsp.bob.calls"] == 1
    assert counts["channel.messages"] == 4


def test_malicious_oqfe_counts():
    # Alice's keygen plus the re-derivation inside the keygen proof check
    counts = traced_counts(lambda: protocols.oqfe_run(
        1, qsim.plus_state(Angle8(2)), PARAMS, sha256(b"selftest-mal"), "mal",
        rsp.rsp_bob_quantum, zk.ZkAuthority()))
    assert counts["lattice.gen_regular.calls"] == 2
    assert counts["channel.messages"] == 7


def test_brick_q2pc_counts():
    psi = qsim.tensor(qsim.plus_state(), qsim.plus_state())
    counts = traced_counts(lambda: protocols.q2pc_run(
        mbqc.brick_pattern(Angle8(1), Angle8(3)), psi, PARAMS,
        sha256(b"selftest-brick"), rsp.rsp_bob_quantum, zk.ZkAuthority()))
    # 4 keygen proofs and 2 blind-angle proofs; 2 sites x 2 RSP runs
    assert counts["zk.verify.calls"] == 6
    assert counts["lattice.invert.calls"] == 4
    assert counts["channel.messages"] == 18


def test_compiled_proof_spans_both_threads():
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        session, _p_ep, _v_ep = compilers.zkpoqk_run(
            11, 4, sha256(b"selftest-zkpoqk"), 6, "wrong-key", zk.ZkAuthority())
    finally:
        tracer.uninstall()
    assert session.accepted is False
    names = {s[2] for s in tracer.spans}
    assert {"compilers.zkpoqk_prover", "compilers.zkpoqk_verifier", "zk.verify"} <= names
    assert len({s[4] for s in tracer.spans}) == 2   # prover's and verifier's threads
    for span in tracer.spans:
        assert 0.0 <= span[7] <= span[6] + 1e-9     # self time within duration


def test_uninstall_restores_every_binding():
    before = {(m.__name__, k): v for m in tracer_mod.LAYERS.values()
              for k, v in vars(m).items() if callable(v)}
    tracer = tracer_mod.Tracer()
    tracer.install()
    # a from-import copy gets the same wrapper as the defining module
    assert hasattr(protocols.commit, "__wrapped__")
    assert protocols.commit is primitives.commit
    assert zk.sha256 is primitives.sha256
    tracer.uninstall()
    after = {(m.__name__, k): v for m in tracer_mod.LAYERS.values()
             for k, v in vars(m).items() if callable(v)}
    assert before == after
    assert not hasattr(channel.Endpoint.send, "__wrapped__")


def test_wrong_oracle_makes_operations_fail():
    wrong = tuple((name, make, b, 1 - ideal)
                  for name, make, b, ideal in workloads.OQFE_CASES)
    ops = workloads.oqfe_ops(7, 0, cases=wrong)[:3]
    tally = run.Tally()
    run.run_ops(ops, tally)
    assert tally.attempted == 3
    assert tally.failed == 3
    assert len(tally.latencies) == 3


def test_raising_operation_fails_without_ending_the_run():
    def boom():
        raise RuntimeError("injected")
    ops = [workloads.Op("boom", boom, lambda _out: True),
           workloads.Op("fine", lambda: 1, lambda out: out == 1)]
    tally = run.Tally()
    run.run_ops(ops, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failures == {"boom": 1}
    assert len(tally.latencies) == 2


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0
    assert pct == pytest.approx(90.0)
