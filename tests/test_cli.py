"""Command-line interface: exit codes, deterministic output, transcript
capture and replay, both transports."""

import json
import threading

import pytest

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


def test_unknown_flag_exit_2(capsys):
    assert cli.main(["oqfe", "run", "--no-such-flag"]) == 2


def test_unknown_pattern_exit_2(capsys):
    assert cli.main(["q2pc", "run", "--pattern", "nope"]) == 2


def test_missing_subcommand_exit_2(capsys):
    assert cli.main([]) == 2


def test_tcp_needs_peer_flags(capsys):
    assert cli.main(["oqfe", "run", "--transport", "tcp",
                     "--role", "alice"]) == 2


def test_malicious_mode_rejected_on_tcp(capsys):
    assert cli.main(["oqfe", "run", "--transport", "tcp", "--role", "alice",
                     "--connect", "x:1", "--mode", "mal"]) == 2


def test_input_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps([[0.6, 0.0], [0.48, 0.64]]))
    code, out = run(capsys, "oqfe", "run", "--b", "0",
                    "--input-file", str(path), "--seed", "8")
    assert code == 0


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
