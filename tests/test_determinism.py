"""Cross-version determinism gate: for fixed seeds, CLI stdout, transcript
files and OQFE session transcripts are pinned by SHA-256.

A refactor must keep every digest.  A change that moves one on purpose
updates it here and says in CHANGES.md what changed and why."""

import hashlib
import json

import pytest

from q2pc import cli, compilers, harness, lattice, protocols, qsim, rsp, zk
from q2pc.primitives import coin_source, sha256
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
     "b5022b908e86a9ccf9dc84ed106605fd1519f7d93dc6fbd4c8d4144b5678fd61"),
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


# the exact reports' floats: both semi-honest-Alice simulator variants and
# the real view law (in accumulation order), exact backend equivalence, and
# the OQFE output law, on a d0 = 0 key (seed 4) and a d0 = 1 key (seed 9)
KEY_SEEDS = {"d0=0": bytes([4]) * 32, "d0=1": bytes([9]) * 32}


def json_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def simulator_payload(key, b, name):
    kp = lattice.gen_regular(TINY, coin_source(KEY_SEEDS[key], "gen"))
    reports = [harness.simulator_tv_experiment(INPUTS[name](), b, KEY_SEEDS[key],
                                               variant=variant).to_dict()
               for variant in ("corrected", "literal")]
    return [reports, list(harness.real_view_law(kp, INPUTS[name](), b).items())]


REPORT_DIGESTS = {
    "simulator/d0=0/0/zero":
        "92c780bb056e0cd48d417a02f501891a15cebce363e31a8589208fcf49d57afd",
    "simulator/d0=0/0/plus":
        "d3147f966be970e150735866ec1b44b1a0bec0e4fba4593f10326a6db16d1c9e",
    "simulator/d0=0/0/iplus":
        "3734700def9b2bdd9788a69d043b14edb46c7e087e4523284e374ab7ee44f29c",
    "simulator/d0=0/1/zero":
        "a5cacb9b610c935edd8285fef3cc900614256d7d8cf722d4b508c5eb7f29918f",
    "simulator/d0=0/1/plus":
        "1673a0215e0e640f8da422eb0cf5718fc7818931d881b35b21ae081ed55fe73f",
    "simulator/d0=0/1/iplus":
        "bbc150e4c3989f4b516a9d961ff6bcbde2502ec0c6979b4dc33ec3161d682293",
    "simulator/d0=1/0/zero":
        "869026f6ea1264f07434ffeec9da7f6b35141d1461d9b233625bfa86538ac682",
    "simulator/d0=1/0/plus":
        "0ac2198811a7ebaa71c4fe58fb0d0d44bc23c6d61d4ed54d3ad0bae054e08408",
    "simulator/d0=1/0/iplus":
        "8927f887174d30dd55e79e9041f0d675563a9c77bedf5602187f7f4eb8d7cb4c",
    "simulator/d0=1/1/zero":
        "856fb1049a31ee726fc263209f5a6bfccefcb9b6799e62ade5f4df7e3e0ea194",
    "simulator/d0=1/1/plus":
        "40318128460139ab09b47ab5fbe47abb56e4bf0e60c4cd54d1792c9349e0baa0",
    "simulator/d0=1/1/iplus":
        "c6b44c7ffc811a78c6a8759c469998a6e2c30e26f90e27b0bd95b142115d0653",
    "backend-eq/d0=0/1":
        "1a03801949e0544475f6bfffb33465f0c1ad68397921de642434b9968b1d6306",
    "backend-eq/d0=0/7":
        "b858f4b4668e95f0b435e33ddfbbfda61e183557f252edcbf708b272b1bdb3de",
    "backend-eq/d0=1/1":
        "590054eb049e2676cb0d8b6ec6b40df69275f79e6fdab73034c8e1404df63c6b",
    "backend-eq/d0=1/7":
        "b6a32c8ddd064181364240ed8a51df3acca8b9abdf0d16daf5d79f7c96290608",
    "oqfe-output/0/zero":
        "bdff90f2c051ac8d78fa08b7a8af6db0173095e473e2040d5c429e79ebb77837",
    "oqfe-output/0/plus":
        "b67b88f814c42579a9f66de20bd44e0d7e9189e4067dfbca0921652f4eb37a6a",
    "oqfe-output/0/iplus":
        "824fe76fdb896da5bf4d7dab7e5aef44022ba520b1faae71f794958a8d5c532c",
    "oqfe-output/1/zero":
        "b67b88f814c42579a9f66de20bd44e0d7e9189e4067dfbca0921652f4eb37a6a",
    "oqfe-output/1/plus":
        "b67b88f814c42579a9f66de20bd44e0d7e9189e4067dfbca0921652f4eb37a6a",
    "oqfe-output/1/iplus":
        "3374a112b5d9eef2c30f743f8f06d4af7732e3b5e87f332d78df9dc2381f7f62",
}


def report_payload(case):
    kind, *args = case.split("/")
    if kind == "simulator":
        key, b, name = args
        return simulator_payload(key, int(b), name)
    if kind == "backend-eq":
        key, points = args
        return harness.backend_equivalence_experiment(
            key_seed=KEY_SEEDS[key], validate_points=int(points)).to_dict()
    b, name = args
    return harness.oqfe_output_law_exact(INPUTS[name](), int(b))


@pytest.mark.parametrize("case", sorted(REPORT_DIGESTS))
def test_exact_report_is_pinned(case):
    assert json_digest(report_payload(case)) == REPORT_DIGESTS[case]
