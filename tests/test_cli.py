"""Command-line interface: exit codes, deterministic output, transcript
capture and replay, both transports."""

import argparse
import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q2pc import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_oqfe_run_success(capsys):
    code, out = run(capsys, "oqfe", "run", "--mode", "sh", "--b", "1",
                    "--input", "plus", "--profile", "tiny", "--seed", "7")
    assert code == 0
    data = json.loads(out)
    assert data["s_b"] in (0, 1) and data["delta"] % 2 == 0


def test_oqfe_malicious_mode(capsys):
    code, out = run(capsys, "oqfe", "run", "--mode", "mal", "--b", "0",
                    "--input", "one", "--seed", "3")
    assert code == 0
    assert json.loads(out)["s_b"] == 1   # M_Z |1> is deterministic


def test_q2pc_run_library_pattern(capsys):
    code, out = run(capsys, "q2pc", "run", "--pattern", "rx_teleport:2",
                    "--input", "iplus", "--seed", "5")
    assert code == 0
    assert json.loads(out)["output"] == [1]


def test_q2pc_run_pattern_file(tmp_path, capsys):
    from q2pc import mbqc
    path = tmp_path / "pat.json"
    path.write_text(mbqc.pattern_to_json(mbqc.identity_pattern()))
    code, out = run(capsys, "q2pc", "run", "--pattern", str(path),
                    "--input", "one", "--seed", "2")
    assert code == 0
    assert json.loads(out)["output"] == [1]
    for bad in ("{not json", "[1, 2]", '{"format": 1}',
                '{"format": 1, "n": "1", "m": 1, "phi": [[0]]}',
                '{"format": 1, "n": 1, "m": 1, "phi": [["a"]]}',
                '{"format": 1, "n": 1, "m": 1, "phi": 0}',
                '{"format": 1, "n": 1, "m": 1, "phi": [[0]], "bridges": [0]}'):
        path.write_text(bad)
        assert cli.main(["q2pc", "run", "--pattern", str(path)]) == 2
    path.write_bytes(b"\xff\xfe")
    assert cli.main(["q2pc", "run", "--pattern", str(path)]) == 2


def test_experiment_reports(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "experiment", "delta-uniformity", "--seed", "1",
                    "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["tv"] == 0.0


def test_experiment_failure_exit_code(capsys):
    code, out = run(capsys, "experiment", "simulator-tv", "--variant",
                    "literal", "--b", "1")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_compile_fullsim_deviation_rejected(capsys):
    code, out = run(capsys, "compile", "fullsim", "--pattern",
                    "rx_teleport:2", "--input", "iplus", "--seed", "2",
                    "--deviation", "bad-opening")
    assert code == 1
    assert json.loads(out)["accepted"] is False


def test_q2pc_correctness_on_two_row_pattern(capsys):
    code, out = run(capsys, "experiment", "q2pc-correctness", "--pattern",
                    "brick:1,3", "--seed", "3")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv", [
    ["oqfe", "run"], ["q2pc", "run"], ["compile", "fullsim"],
    ["experiment", "extractor"], ["experiment", "simulator-tv"],
    ["zkpoqk", "demo"]])
def test_only_tiny_profile_offered(capsys, argv):
    code = cli.main(argv + ["--profile", "small"])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid choice" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_zkpoqk_demo_extracts(capsys):
    code, out = run(capsys, "zkpoqk", "demo", "--seed", "4",
                    "--witness", "11")
    assert code == 0
    assert json.loads(out)["extracted"] == 11
    assert cli.main(["zkpoqk", "demo", "--nbits", "-1"]) == 2


def test_unknown_flag_exit_2(capsys):
    assert cli.main(["oqfe", "run", "--no-such-flag"]) == 2


def test_unknown_pattern_exit_2(capsys):
    assert cli.main(["q2pc", "run", "--pattern", "nope"]) == 2
    assert cli.main(["q2pc", "run", "--pattern", "brick:x"]) == 2   # not an angle


@pytest.mark.parametrize("argv", [
    ["extractor", "--trials", "0"],           # 0 is not "use the default"
    ["delta-uniformity", "--trials", "0"],
    ["backend-eq", "--trials", "-3"],
    ["delta-uniformity", "--trials", "1"]],   # threshold 2.5: cannot fail
    ids=["extractor-0", "delta-0", "backend-eq-negative", "delta-1"])
def test_unusable_trial_count_exit_2(capsys, argv):
    assert cli.main(["experiment"] + argv) == 2
    assert "trials" in capsys.readouterr().err


def test_missing_subcommand_exit_2(capsys):
    assert cli.main([]) == 2


def test_tcp_needs_peer_flags(capsys):
    tcp = ["oqfe", "run", "--transport", "tcp"]
    assert cli.main(tcp + ["--role", "alice"]) == 2
    for value in ("nohost", "127.0.0.1:", "127.0.0.1:x", "127.0.0.1:70000",
                  "127.0.0.1:-1"):
        assert cli.main(tcp + ["--role", "alice", "--connect", value]) == 2
        assert cli.main(tcp + ["--role", "bob", "--listen", value]) == 2


def test_malicious_mode_rejected_on_tcp(capsys):
    assert cli.main(["oqfe", "run", "--transport", "tcp", "--role", "alice",
                     "--connect", "x:1", "--mode", "mal"]) == 2


def test_input_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps([[0.6, 0.0], [0.48, 0.64]]))
    code, out = run(capsys, "oqfe", "run", "--b", "0",
                    "--input-file", str(path), "--seed", "8")
    assert code == 0
    for bad in ("[[0.6, 0.0], [0.48", '{"re": 1}', "[[1, 0, 0], [0, 0]]",
                '[["1", 0], [0, 0]]', "[[1e999, 0], [0, 0]]", "[[NaN, 0], [0, 0]]",
                "[[1" + "0" * 400 + ", 0], [0, 0]]", "7"):
        path.write_text(bad)
        assert cli.main(["oqfe", "run", "--input-file", str(path)]) == 2, bad
    path.write_bytes(b"\xff\xfe")
    assert cli.main(["oqfe", "run", "--input-file", str(path)]) == 2


@pytest.mark.parametrize("experiment", ["simulator-tv", "oqfe-correctness"])
def test_one_qubit_experiments_read_the_input_file(tmp_path, capsys, experiment):
    path = tmp_path / "one.json"
    path.write_text(json.dumps([[0.0, 0.0], [1.0, 0.0]]))
    named = run(capsys, "experiment", experiment, "--input", "one")
    assert run(capsys, "experiment", experiment, "--input-file", str(path)) == named
    assert named != run(capsys, "experiment", experiment, "--input", "plus")
    assert cli.main(["experiment", experiment, "--input-file",
                     str(tmp_path / "missing.json")]) == 2


def pattern_over_budget(directory, rows: int = 25):
    """A well-formed rows x 1 pattern file, one qubit over the dense budget."""
    path = directory / f"rows{rows}.json"
    path.write_text(json.dumps({"format": 1, "n": rows, "m": 1,
                                "phi": [[0]] * rows}))
    return path


@pytest.mark.parametrize("argv", [["q2pc", "run"],
                                  ["experiment", "q2pc-correctness"],
                                  ["compile", "fullsim"]])
def test_pattern_over_the_dense_budget_exit_2(tmp_path, capsys, monkeypatch, argv):
    def no_state(*_args):
        raise AssertionError("an input state was built")
    monkeypatch.setattr(cli, "resolve_input", no_state)
    code = cli.main(argv + ["--pattern", str(pattern_over_budget(tmp_path))])
    captured = capsys.readouterr()
    assert code == 2
    assert "dense budget" in captured.err and "Traceback" not in captured.err


def test_stdout_is_deterministic(capsys):
    argv = ["q2pc", "run", "--pattern", "brick:1,3", "--input", "plus",
            "--seed", "17"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_transcript_capture_and_replay(tmp_path, capsys):
    path = tmp_path / "run.ndjson"
    argv = ["oqfe", "run", "--b", "1", "--seed", "9"]
    assert cli.main(argv + ["--transcript", str(path)]) == 0
    capsys.readouterr()
    code, out = run(capsys, *argv, "--replay", str(path))
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {"replay": "identical"}
    path.write_text("not a transcript\n")
    assert cli.main(argv + ["--replay", str(path)]) == 2


def test_replay_divergence_detected(tmp_path, capsys):
    path = tmp_path / "run.ndjson"
    assert cli.main(["oqfe", "run", "--b", "1", "--seed", "9",
                     "--transcript", str(path)]) == 0
    capsys.readouterr()
    code, out = run(capsys, "oqfe", "run", "--b", "0", "--seed", "9",
                    "--replay", str(path))
    assert code == 1
    assert json.loads(out.splitlines()[-1])["replay"] == "divergent"


def test_tcp_transport_roundtrip(capsys):
    port = 39613
    results = {}

    def bob():
        results["bob"] = cli.main(
            ["oqfe", "run", "--transport", "tcp", "--role", "bob",
             "--listen", f"127.0.0.1:{port}", "--seed", "12",
             "--input", "one"])

    th = threading.Thread(target=bob)
    th.start()
    import time
    code = 2
    for _ in range(40):   # connect retries while the listener comes up
        code = cli.main(["oqfe", "run", "--transport", "tcp", "--role",
                         "alice", "--connect", f"127.0.0.1:{port}",
                         "--b", "1", "--seed", "12"])
        if code != 2:
            break
        time.sleep(0.1)
    th.join()
    assert code == 0 and results["bob"] == 0


# ------------------------------------------------------ argv fuzzing

def _leaf_commands(parser, prefix=()):
    """(argv prefix, positionals, optionals) of every runnable subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, prefix + (name,))
            return
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    yield (prefix, [a for a in actions if not a.option_strings],
           [a for a in actions if a.option_strings])


def _closed_local_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture(scope="module")
def fuzz_values(tmp_path_factory):
    """Malformed values by destination; any other flag draws from its
    parser choices, or small ints for an int flag."""
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "garbage.json").write_text("{not json")
    (tmp / "object.json").write_text('{"format": 1, "n": [1]}')
    (tmp / "binary.json").write_bytes(b"\xff\xfe\x00")
    files = [str(tmp / name) for name in
             ("garbage.json", "object.json", "binary.json", "missing.json")]
    over_budget = str(pattern_over_budget(tmp))
    # a well-formed --listen would block in accept, so listen values are
    # never well-formed; connect reaches only a closed local port
    bad_peers = ["nohost", "127.0.0.1:", "127.0.0.1:x", ":1", "127.0.0.1:70000"]
    return {
        "pattern": files + [over_budget, "identity", "brick:1,3", "nope", "brick:x", ""],
        "replay": files,
        "input_file": files,
        "connect": bad_peers + [f"127.0.0.1:{_closed_local_port()}"],
        "listen": bad_peers,
        "transcript": [str(tmp / "out.ndjson"), str(tmp)],
        "out": [str(tmp / "report.json"), str(tmp)],
        "seed": ["0", "demo", ""],
    }


def _value(draw, action, values):
    if action.dest in values:
        return draw(st.sampled_from(values[action.dest]))
    if action.choices is not None:
        return draw(st.sampled_from([str(c) for c in action.choices] + ["bogus"]))
    if action.type is int:
        return draw(st.sampled_from([str(i) for i in range(-2, 13)] + ["x"]))
    raise AssertionError(f"no fuzz values for {action.dest}")


@st.composite
def cli_argv(draw, values):
    prefix, positionals, optionals = draw(st.sampled_from(
        list(_leaf_commands(cli.build_parser()))))
    argv = list(prefix) + [_value(draw, a, values) for a in positionals]
    for action in optionals:
        # the extractor's default 100 trials would take about a second
        forced = action.dest == "trials" and "extractor" in argv
        if forced or draw(st.booleans()):
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(_value(draw, action, values))
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_fails_closed_on_any_argv(fuzz_values, data):
    argv = data.draw(cli_argv(fuzz_values), label="argv")
    assert cli.main(argv) in (0, 1, 2)
