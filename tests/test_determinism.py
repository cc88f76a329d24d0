"""Cross-version determinism gate: for fixed seeds, CLI stdout, transcript
files and OQFE session transcripts are pinned by SHA-256.

A refactor must keep every digest.  A change that moves one on purpose
updates it here and says in CHANGES.md what changed and why."""

import hashlib

import pytest

from q2pc import cli, compilers, protocols, qsim, rsp, zk
from q2pc.primitives import sha256
from q2pc.profiles import get_profile
from q2pc.qsim import Angle8

TINY = get_profile("tiny").params

# SHA-256 of stdout followed by the --transcript file (stdout only for
# compile and experiment, which write no transcript)
CLI_DIGESTS = [
    (["q2pc", "run", "--pattern", "brick:1,3", "--seed", "demo"],
     "53432a8298154e5342d06bc9d3aefecd516690208cf97011b580bf9193a82705"),
    (["oqfe", "run", "--mode", "sh", "--b", "1", "--input", "iplus", "--seed", "demo"],
     "aa6160e98e9f20aa3502e6479760f3878f7892356a0eb2034e19e3c3941f48aa"),
    (["oqfe", "run", "--mode", "mal", "--b", "1", "--input", "iplus", "--seed", "demo"],
     "10652a94c0a4e40cf93a4f1578fc3af9f480cc85402d407865cff581ca0b5f2b"),
    (["compile", "fullsim", "--pattern", "rx_teleport:2", "--input", "iplus",
      "--seed", "demo"],
     "2bea9189478856bd4beb8323b88c553ac71bf8d5145b6256e86f1680c4a7aa8a"),
    # the exact blinded law's floats, at the angles and masks of a real run
    (["experiment", "q2pc-correctness", "--pattern", "brick:1,3", "--seed", "demo"],
     "29391963f840dd895f5ad67ebe581448d091b8b2caedbec59e660d9866c38c47"),
    # both RSP backends' samplers, binned
    (["experiment", "backend-eq", "--trials", "150", "--seed", "demo"],
     "6115f379ef99255c32acff74cacb9438ab7ce6a246adab6880356ec6629be5ad"),
    # the dense w-law enumeration's floats on the validated points
    (["experiment", "backend-eq", "--seed", "demo"],
     "5b55ba086207b463e72ea89c9ae76c9d952a5236f30e63f74d3ba4789ef93b5e"),
    # the OQFE chain's graph-state floats, through every exact view law
    (["experiment", "simulator-tv", "--b", "0", "--input", "iplus", "--seed", "demo"],
     "e71d5d8611f6e9b3a7aab7cd81365053745bda1868b0a91ed929b6dd14c14546"),
    # a one-wire blinded law: no bridge, three columns
    (["experiment", "q2pc-correctness", "--pattern", "rz:3", "--seed", "demo"],
     "c4fdace3bcc2e6eb1f0486a2fe854e0dce10b3fb8f99114b714ee9b3dfe699f9"),
]


@pytest.mark.parametrize("argv, digest", CLI_DIGESTS,
                         ids=["q2pc-brick", "oqfe-sh", "oqfe-mal", "compile-fullsim",
                              "q2pc-correctness", "backend-eq-sampled",
                              "backend-eq-exact", "simulator-tv",
                              "q2pc-correctness-rz"])
def test_cli_output_is_pinned(argv, digest, tmp_path, capsys):
    path = tmp_path / "transcript.json"
    extra = ([] if argv[0] in ("compile", "experiment")
             else ["--transcript", str(path)])
    assert cli.main(argv + extra) == 0
    data = capsys.readouterr().out.encode()
    if extra:
        data += path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# quantum Bob: the sampled RSP and OQFE measurements are on the wire
OQFE_DIGESTS = [
    (0, "zero", "sh", b"determinism-1",
     "e7445996c653b851ec74217468f705589490a5e3fc02c3f43f5865e66e1f5588"),
    (1, "iplus", "mal", b"determinism-2",
     "d42b822764ba4695bbba48ed9539e21a96cf7b94fe9ea18f473cbde0761e97f1"),
    (1, "plus", "sh", b"determinism-3",
     "30b98c8be779ab6d985afede565dd7f1750dfcccfbb3158450355360e162402d"),
]
INPUTS = {"zero": lambda: qsim.basis_state(1, 0),
          "plus": lambda: qsim.plus_state(),
          "iplus": lambda: qsim.plus_state(Angle8(2))}


@pytest.mark.parametrize("b, name, mode, seed, digest", OQFE_DIGESTS)
def test_quantum_oqfe_transcript_is_pinned(b, name, mode, seed, digest):
    _alice, _bob, a_ep, _b_ep = protocols.oqfe_run(
        b, INPUTS[name](), TINY, sha256(seed), mode, rsp.rsp_bob_quantum,
        zk.ZkAuthority())
    assert hashlib.sha256(a_ep.transcript.dumps().encode()).hexdigest() == digest


def test_zkpoqk_transcript_is_pinned():
    # the prover's sampled witness measurement decides every answer
    _session, p_ep, _v_ep = compilers.zkpoqk_run(
        11, 4, sha256(b"determinism-zkpoqk"), 6, None, zk.ZkAuthority())
    assert (hashlib.sha256(p_ep.transcript.dumps().encode()).hexdigest()
            == "d00e2e590775cddd20069b76308958e2ab19edd78dfc095f5a0a5a4c0eb948a2")
