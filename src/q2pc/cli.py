"""Command-line entry point: run the protocols (one process or two over
TCP), run the security experiments, and drive the compilers, with
deterministic seeded output, transcript capture, and replay checking.

Exit codes: 0 success or accept, 1 protocol abort / reject / replay
divergence, 2 usage error.  All randomness is derived from --seed, so a
rerun with identical arguments produces byte-identical stdout, transcript
files, and reports.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import channel, compilers, harness, mbqc, protocols, qsim, rsp, zk
from .primitives import coin_source, sha256
from .profiles import get_profile
from .qsim import Angle8, StateVector

NAMED_INPUTS = ("zero", "one", "plus", "iplus", "random")


class UsageError(Exception):
    pass


def seed_bytes(seed: str) -> bytes:
    return sha256(b"cli-seed|" + seed.encode("utf-8"))


def named_state(name: str, width: int = 1) -> StateVector:
    single = {
        "zero": lambda: qsim.basis_state(1, 0),
        "one": lambda: qsim.basis_state(1, 1),
        "plus": lambda: qsim.plus_state(),
        "iplus": lambda: qsim.plus_state(Angle8(2)),
        "random": lambda: StateVector(
            1, np.array([0.6, 0.48 + 0.64j])),
    }
    if name not in single:
        raise UsageError(f"unknown input state {name!r}; "
                         f"choose from {', '.join(NAMED_INPUTS)}")
    state = single[name]()
    for _ in range(width - 1):
        state = qsim.tensor(state, single[name]())
    return state


def state_from_file(path: str, width: int) -> StateVector:
    """Amplitude list file: JSON [[re, im], ...] of length 2^width."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    amps = np.array([complex(r, i) for r, i in rows])
    if len(amps) != 1 << width:
        raise UsageError(f"input file holds {len(amps)} amplitudes, "
                         f"need {1 << width}")
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise UsageError("input file amplitudes are all zero")
    return StateVector(width, amps / norm)


def load_pattern(spec: str) -> mbqc.BrickworkPattern:
    """Either a JSON pattern file or a library shorthand name[:a[,b]]."""
    if spec.endswith(".json"):
        with open(spec, "r", encoding="utf-8") as fh:
            return mbqc.pattern_from_json(fh.read())
    name, _, argtext = spec.partition(":")
    if name not in mbqc.PATTERN_LIBRARY:
        raise UsageError(f"unknown pattern {name!r}; library: "
                         f"{', '.join(sorted(mbqc.PATTERN_LIBRARY))}")
    args = [Angle8(int(a)) for a in argtext.split(",") if a != ""]
    try:
        return mbqc.PATTERN_LIBRARY[name](*args)
    except TypeError as exc:
        raise UsageError(f"bad arguments for pattern {name!r}: {exc}") from exc


def resolve_input(args, width: int) -> StateVector:
    if getattr(args, "input_file", None):
        return state_from_file(args.input_file, width)
    return named_state(args.input, width)


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def write_or_check_transcript(ep, args) -> int:
    """--transcript writes; --replay compares against a recorded file."""
    text = ep.transcript.dumps()
    if getattr(args, "transcript", None):
        with open(args.transcript, "w", encoding="utf-8") as fh:
            fh.write(text)
    if getattr(args, "replay", None):
        with open(args.replay, "r", encoding="utf-8") as fh:
            recorded = channel.Transcript.loads(fh.read())
        div = channel.first_divergence(recorded, ep.transcript)
        if div is not None:
            emit({"replay": "divergent", "first_divergence_seq": div})
            return 1
        emit({"replay": "identical"})
    return 0


def make_endpoint(args, sid: bytes):
    """Two-process transport from the role/listen/connect flags."""
    if args.role == "alice":
        if not args.connect:
            raise UsageError("--role alice needs --connect host:port")
        host, port = args.connect.rsplit(":", 1)
        return channel.tcp_connect(sid, "alice", host, int(port))
    if not args.listen:
        raise UsageError("--role bob needs --listen host:port")
    host, port = args.listen.rsplit(":", 1)
    return channel.tcp_listen(sid, "bob", host, int(port))


# ------------------------------------------------------------ subcommands

def cmd_oqfe_run(args) -> int:
    params = get_profile(args.profile).params
    seed = seed_bytes(args.seed)
    psi = resolve_input(args, 1)
    if args.transport == "inproc":
        alice, bob, a_ep, _b_ep = protocols.oqfe_run(
            args.b, psi, params, seed, mode=args.mode,
            backend=rsp.rsp_bob_shortcut)
        emit({"s_b": alice.s_b, "delta": int(alice.delta),
              "m0": bob.m0, "s_bar": bob.s_bar})
        return write_or_check_transcript(a_ep, args)
    if args.mode == "mal":
        raise UsageError("malicious mode needs the in-process proof escrow; "
                         "use --transport inproc")
    sid = coin_source(seed, "session").take_bytes(16)
    ep = make_endpoint(args, sid)
    try:
        if args.role == "alice":
            view = protocols.oqfe_sh_alice(ep, args.b, params,
                                           coin_source(seed, "alice"))
            emit({"s_b": view.s_b, "delta": int(view.delta)})
        else:
            view = protocols.oqfe_sh_bob(ep, psi, params, coin_source(seed, "bob"),
                                         rsp.rsp_bob_shortcut)
            emit({"m0": view.m0, "s_bar": view.s_bar})
        return write_or_check_transcript(ep, args)
    finally:
        ep.close()


def cmd_q2pc_run(args) -> int:
    params = get_profile(args.profile).params
    seed = seed_bytes(args.seed)
    pattern = load_pattern(args.pattern)
    psi = resolve_input(args, pattern.n)
    if args.transport == "inproc":
        alice, _bob, a_ep, _b_ep = protocols.q2pc_run(
            pattern, psi, params, seed, backend=rsp.rsp_bob_shortcut)
        emit({"output": list(alice.output)})
        return write_or_check_transcript(a_ep, args)
    raise UsageError("blind evaluation carries proofs that need the "
                     "in-process escrow; use --transport inproc")


def cmd_experiment(args) -> int:
    seed = seed_bytes(args.seed)
    name = args.name
    if name == "delta-uniformity":
        report = harness.delta_uniformity_experiment(
            trials=args.trials, seed=seed, force_r0=args.force_r0)
    elif name == "backend-eq":
        report = harness.backend_equivalence_experiment(
            profile=args.profile, trials=args.trials, seed=seed)
    elif name == "simulator-tv":
        report = harness.simulator_tv_experiment(
            named_state(args.input), args.b, profile=args.profile,
            variant=args.variant)
    elif name == "extractor":
        report = harness.extractor_experiment(
            trials=args.trials or 100, seed=seed, profile=args.profile)
    elif name == "oqfe-correctness":
        report = harness.oqfe_correctness_report(named_state(args.input),
                                                 args.b)
    elif name == "q2pc-correctness":
        pattern = load_pattern(args.pattern)
        report = harness.q2pc_correctness_report(
            pattern, resolve_input(args, pattern.n), seed)
    else:
        raise UsageError(f"unknown experiment {name!r}")
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    emit(payload)
    return 0 if report.passed else 1


def cmd_compile_fullsim(args) -> int:
    params = get_profile(args.profile).params
    pattern = load_pattern(args.pattern)
    psi = resolve_input(args, pattern.n)
    result, _bob = compilers.fullsim_run(pattern, psi, params,
                                         seed_bytes(args.seed),
                                         deviation=args.deviation)
    emit({"output": list(result.output), "accepted": result.accepted,
          "phase": result.phase})
    return 0 if result.accepted else 1


def cmd_zkpoqk_demo(args) -> int:
    if not 0 <= args.witness < (1 << args.nbits):
        raise UsageError("witness out of range for --nbits")
    session, _pe, _ve = compilers.zkpoqk_run(
        args.witness, args.nbits, seed_bytes(args.seed),
        rounds=args.rounds, deviation=args.deviation)
    out = {"accepted": session.accepted, "phase": session.phase}
    if session.accepted:
        out["extracted"] = compilers.zkpoqk_extract(session)
    emit(out)
    return 0 if session.accepted else 1


# --------------------------------------------------------------- parsing

def add_common(p, transport=False):
    # only tiny is small enough for the simulated quantum Bob and the
    # exact experiments
    p.add_argument("--profile", default="tiny", choices=("tiny",))
    p.add_argument("--seed", default="0")
    if transport:
        p.add_argument("--transport", default="inproc",
                       choices=("inproc", "tcp"))
        p.add_argument("--role", choices=("alice", "bob"))
        p.add_argument("--listen")
        p.add_argument("--connect")
        p.add_argument("--transcript")
        p.add_argument("--replay")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="q2pc",
        description="Blind two-party quantum computation testbed")
    sub = ap.add_subparsers(dest="command", required=True)

    oqfe = sub.add_parser("oqfe", help="oblivious rotated-measurement runs")
    oqfe_sub = oqfe.add_subparsers(dest="action", required=True)
    orun = oqfe_sub.add_parser("run")
    orun.add_argument("--mode", default="sh", choices=("sh", "mal"))
    orun.add_argument("--b", type=int, default=0, choices=(0, 1))
    orun.add_argument("--input", default="plus", choices=NAMED_INPUTS)
    orun.add_argument("--input-file")
    add_common(orun, transport=True)
    orun.set_defaults(fn=cmd_oqfe_run)

    q2 = sub.add_parser("q2pc", help="blind pattern evaluation")
    q2_sub = q2.add_subparsers(dest="action", required=True)
    qrun = q2_sub.add_parser("run")
    qrun.add_argument("--pattern", default="identity",
                      help="library shorthand name[:a[,b]] or a .json file")
    qrun.add_argument("--input", default="plus", choices=NAMED_INPUTS)
    qrun.add_argument("--input-file")
    add_common(qrun, transport=True)
    qrun.set_defaults(fn=cmd_q2pc_run)

    exp = sub.add_parser("experiment", help="security experiments")
    exp.add_argument("name", choices=("delta-uniformity", "backend-eq",
                                      "simulator-tv", "extractor",
                                      "oqfe-correctness", "q2pc-correctness"))
    exp.add_argument("--trials", type=int)
    exp.add_argument("--b", type=int, default=0, choices=(0, 1))
    exp.add_argument("--input", default="plus", choices=NAMED_INPUTS)
    exp.add_argument("--input-file")
    exp.add_argument("--variant", default="corrected",
                     choices=("corrected", "literal"))
    exp.add_argument("--pattern", default="identity")
    exp.add_argument("--force-r0", action="store_true")
    exp.add_argument("--out")
    add_common(exp)
    exp.set_defaults(fn=cmd_experiment)

    comp = sub.add_parser("compile", help="compiled protocol runs")
    comp_sub = comp.add_subparsers(dest="action", required=True)
    fs = comp_sub.add_parser("fullsim")
    fs.add_argument("--pattern", default="identity")
    fs.add_argument("--input", default="plus", choices=NAMED_INPUTS)
    fs.add_argument("--input-file")
    fs.add_argument("--deviation",
                    choices=("wrong-description", "tamper-message",
                             "bad-opening", "garbage-commitment"))
    add_common(fs)
    fs.set_defaults(fn=cmd_compile_fullsim)

    zd = sub.add_parser("zkpoqk", help="encrypted proof-of-knowledge demo")
    zd_sub = zd.add_subparsers(dest="action", required=True)
    demo = zd_sub.add_parser("demo")
    demo.add_argument("--rounds", type=int, default=6)
    demo.add_argument("--nbits", type=int, default=4)
    demo.add_argument("--witness", type=int, default=0b1011)
    demo.add_argument("--deviation",
                      choices=("wrong-key", "random-encryptions"))
    add_common(demo)
    demo.set_defaults(fn=cmd_zkpoqk_demo)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except protocols.ProtocolAbort as exc:
        print(f"abort[{exc.phase}]: {exc}", file=sys.stderr)
        return 1
    except (protocols.ProtocolError, compilers.CompilerError,
            harness.HarnessError, channel.ChannelError,
            mbqc.MbqcError, zk.ZkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
