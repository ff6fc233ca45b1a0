import json
import os
import subprocess
import sys

import numpy as np
import pytest

from schur_dilate import cli, serialize
from schur_dilate.cli import main
from schur_dilate.dilation import KrausChannel, channel_simulate
from schur_dilate.linalg import dagger, unitarity_deviation
from schur_dilate.sampling import (
    complex_gaussian,
    random_contraction,
    random_density,
    random_kraus_family,
    rng_from_seed,
)


def write_matrix(path, a):
    serialize.dump(serialize.matrix_to_obj(np.asarray(a, dtype=complex)), path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_param_psd_identity(tmp_path, capsys):
    src = tmp_path / "a.json"
    out = tmp_path / "p.json"
    write_matrix(src, np.eye(4))
    code, _, err = run_cli(capsys, "param", "--kind", "psd", "--shape", "2+2",
                           "--in", str(src), "--out", str(out))
    assert code == 0
    assert err.startswith("roundtrip=0.0")
    params = serialize.params_from_obj(serialize.load(out))
    np.testing.assert_allclose(params.gamma(0, 1), np.zeros((2, 2)), atol=1e-12)


def test_param_scalar_fixture_gamma(tmp_path, capsys):
    src = tmp_path / "a.json"
    out = tmp_path / "p.json"
    write_matrix(src, np.array([[1.0, 0.5], [0.5, 1.0]]))
    code, _, _ = run_cli(capsys, "param", "--kind", "psd", "--shape", "1+1",
                         "--in", str(src), "--out", str(out))
    assert code == 0
    params = serialize.params_from_obj(serialize.load(out))
    assert complex(params.gamma(0, 1)[0, 0]) == pytest.approx(0.5, abs=1e-12)


def test_param_row_roundtrip_reported(tmp_path, capsys):
    rng = rng_from_seed(111)
    g = complex_gaussian(rng, 2, 6)
    t = g / np.linalg.norm(g, 2) * 0.9
    src = tmp_path / "t.json"
    out = tmp_path / "p.json"
    write_matrix(src, t)
    code, _, err = run_cli(capsys, "param", "--kind", "row", "--shape", "2+2+2",
                           "--in", str(src), "--out", str(out))
    assert code == 0
    reported = float(err.strip().split("=", 1)[1])
    assert reported <= 1e-8


def test_param_matrix_kind_and_reconstruct(tmp_path, capsys):
    rng = rng_from_seed(112)
    g = complex_gaussian(rng, 4, 4)
    t = g / np.linalg.norm(g, 2) * 0.8
    src = tmp_path / "t.json"
    out = tmp_path / "r.json"
    write_matrix(src, t)
    code, _, _ = run_cli(capsys, "param", "--kind", "matrix", "--shape", "2+2x2+2",
                         "--in", str(src), "--out", str(out), "--reconstruct")
    assert code == 0
    recon = serialize.matrix_from_obj(serialize.load(out))
    np.testing.assert_allclose(recon, t, atol=1e-8)


def test_param_domain_violation_exits_2(tmp_path, capsys):
    src = tmp_path / "bad.json"
    out = tmp_path / "p.json"
    write_matrix(src, np.diag([1.0, -1.0]))
    code, _, err = run_cli(capsys, "param", "--kind", "psd", "--shape", "1+1",
                           "--in", str(src), "--out", str(out))
    assert code == 2
    assert "NotPSD" in err and "eigenvalue" in err


@pytest.mark.parametrize("kind, shape, rows, cols, reconstruct", [
    ("row", "2+2", 2, 4, "row_reconstruct"),
    ("column", "2+2", 4, 2, "col_reconstruct"),
    ("matrix", "2+2x2+2", 4, 4, "matrix_reconstruct"),
    ("psd", "2+2", 4, 4, "psd_reconstruct"),
])
@pytest.mark.parametrize("flag", [[], ["--reconstruct"]])
def test_param_lossy_roundtrip_exits_2(tmp_path, capsys, monkeypatch, kind, shape,
                                       rows, cols, reconstruct, flag):
    rng = rng_from_seed(113)
    g = complex_gaussian(rng, rows, cols)
    a = g.conj().T @ g if kind == "psd" else g / np.linalg.norm(g, 2) * 0.8
    src = tmp_path / "a.json"
    out = tmp_path / "p.json"
    write_matrix(src, a)
    exact = getattr(cli, reconstruct)
    monkeypatch.setattr(cli, reconstruct, lambda params, tol: exact(params, tol) + 1e-6)
    code, _, err = run_cli(capsys, "param", "--kind", kind, "--shape", shape,
                           "--in", str(src), "--out", str(out), *flag)
    assert code == 2
    assert "NoFactor" in err and "round-trip" in err
    assert "roundtrip=" not in err
    assert not out.exists()


def test_param_io_failure_exits_1(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _, _ = run_cli(capsys, "param", "--kind", "psd", "--shape", "1+1",
                         "--in", str(tmp_path / "missing.json"), "--out", str(out))
    assert code == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, _ = run_cli(capsys, "param", "--kind", "psd", "--shape", "1+1",
                         "--in", str(broken), "--out", str(out))
    assert code == 1


@pytest.mark.parametrize("entry", [["a", 0.0], [None, 0.0], [True, 0.0]])
def test_param_non_numeric_entries_exit_1(tmp_path, capsys, entry):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"rows": 1, "cols": 1, "data": [entry]}))
    code, _, err = run_cli(capsys, "param", "--kind", "psd", "--shape", "1",
                           "--in", str(src), "--out", str(tmp_path / "p.json"))
    assert code == 1
    assert err.startswith("error: ")


def test_param_fractional_size_exits_1(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"rows": 1.5, "cols": 1, "data": [[1.0, 0.0]]}))
    code, _, err = run_cli(capsys, "param", "--kind", "psd", "--shape", "1",
                           "--in", str(src), "--out", str(tmp_path / "p.json"))
    assert code == 1
    assert err.startswith("error: rows must be an integer")


@pytest.mark.parametrize("dim", [7.5, 5])
def test_dilate_povm_effects_of_another_dim_exits_1(tmp_path, capsys, dim):
    src = tmp_path / "povm.json"
    effects = [serialize.matrix_to_obj(np.diag(d)) for d in ([1.0, 0.0], [0.0, 1.0])]
    serialize.dump({"dim": dim, "effects": effects}, src)
    code, _, err = run_cli(capsys, "dilate", "--povm", str(src), "--out", str(tmp_path / "u.json"))
    assert code == 1
    assert err.startswith("error: dim must be an integer" if dim == 7.5
                          else "error: effect shape differs from dim")


def test_dilate_basis_povm(tmp_path, capsys):
    povm_file = tmp_path / "povm.json"
    out = tmp_path / "u.json"
    obj = {"dim": 2, "vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [1.0, 0.0]]]}
    serialize.dump(obj, povm_file)
    code, stdout, _ = run_cli(capsys, "dilate", "--povm", str(povm_file),
                              "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["passed"]
    assert report["compression"] <= 1e-12


def test_dilate_trine_povm(tmp_path, capsys):
    vs = [np.sqrt(2 / 3) * np.array([np.cos(2 * np.pi * k / 3),
                                     np.sin(2 * np.pi * k / 3)]) for k in range(3)]
    povm_file = tmp_path / "trine.json"
    out = tmp_path / "u.json"
    serialize.dump({"dim": 2, "vectors": [serialize.vector_to_obj(v) for v in vs]},
                   povm_file)
    code, stdout, _ = run_cli(capsys, "dilate", "--povm", str(povm_file),
                              "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["total_dim"] == 5
    assert report["compression"] <= 1e-10
    result = serialize.dilation_from_obj(serialize.load(out))
    assert result.unitary.shape == (5, 5)


def test_dilate_channel_with_simulation(tmp_path, capsys):
    ch_file = tmp_path / "ch.json"
    out = tmp_path / "u.json"
    obj = {
        "in_dim": 2, "out_dim": 2,
        "kraus": [
            serialize.matrix_to_obj(np.array([[1.0, 0.0], [0.0, 0.8]])),
            serialize.matrix_to_obj(np.array([[0.0, 0.6], [0.0, 0.0]])),
        ],
    }
    serialize.dump(obj, ch_file)
    code, stdout, _ = run_cli(capsys, "dilate", "--channel", str(ch_file),
                              "--simulate", "20", "--seed", "7", "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["unitarity"] == unitarity_deviation(
        serialize.dilation_from_obj(serialize.load(out)).unitary)
    assert report["simulate_trials"] == 20
    assert report["simulate_max_deviation"] <= 1e-10


@pytest.mark.parametrize("chunk_bytes, chunks", [(cli._CHUNK_BYTES, [12]),
                                                (5 * 3 * 3 * 16, [5, 5, 2])])
def test_dilate_simulation_report_equals_the_one_state_loop(tmp_path, capsys, monkeypatch,
                                                            chunk_bytes, chunks):
    # the states are drawn in the same order and checked as stacks (of 5
    # states in the second case, so 12 states cross two chunk borders); the
    # reported deviation is the one-state-at-a-time loop's to the bit
    monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk_bytes)
    stacks = []

    def spy(result, states, tol):
        stacks.append(len(states))
        return channel_simulate(result, states, tol)

    monkeypatch.setattr(cli, "channel_simulate", spy)
    rng = rng_from_seed(92)
    channel = KrausChannel(3, 2, tuple(random_kraus_family(rng, 3, 2, 4)))
    ch_file, out = tmp_path / "ch.json", tmp_path / "u.json"
    serialize.dump({"in_dim": 3, "out_dim": 2,
                    "kraus": [serialize.matrix_to_obj(e) for e in channel.kraus]}, ch_file)
    code, stdout, _ = run_cli(capsys, "dilate", "--channel", str(ch_file),
                              "--simulate", "12", "--seed", "5", "--out", str(out))
    assert code == 0
    assert stacks == chunks
    result = serialize.dilation_from_obj(serialize.load(out))
    states = rng_from_seed(5)
    worst = 0.0
    for _ in range(12):
        rho = random_density(states, 3)
        worst = max(worst, float(np.abs(channel.apply(rho) - channel_simulate(result, rho)).max()))
    assert stdout == cli._emit({
        "kind": "channel", "total_dim": result.total_dim, "ancilla_dim": result.ancilla_dim,
        "unitarity": result.unitarity, "passed": True,
        "simulate_trials": 12, "simulate_max_deviation": worst}) + "\n"


def test_dilate_non_trace_preserving_exits_2(tmp_path, capsys):
    ch_file = tmp_path / "ch.json"
    out = tmp_path / "u.json"
    serialize.dump({"in_dim": 2, "out_dim": 2,
                    "kraus": [serialize.matrix_to_obj(np.diag([1.0, 0.8]))]},
                   ch_file)
    code, _, err = run_cli(capsys, "dilate", "--channel", str(ch_file),
                           "--out", str(out))
    assert code == 2
    assert "NotTracePreserving" in err


def test_witness_batch_passes_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    common = ["witness", "--family", "toeplitz2", "--witness", "transpose",
              "--trials", "20", "--seed", "3", "--block-dim", "2"]
    code, _, _ = run_cli(capsys, *common, "--out", str(out1))
    assert code == 0
    code, _, _ = run_cli(capsys, *common, "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = [json.loads(line) for line in out1.read_text().splitlines()]
    assert "schur_dilate_version" in lines[0]
    trials = [l for l in lines if "family" in l]
    assert len(trials) == 20
    assert all(l["passed"] for l in trials)
    assert lines[-1]["all_passed"]


def test_witness_span_choi(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "witness", "--family", "span3_1",
                              "--witness", "choi3", "--trials", "10",
                              "--seed", "5", "--blocks", "2")
    assert code == 0
    lines = [json.loads(line) for line in stdout.splitlines()]
    assert lines[-1]["all_passed"]


def test_witness_bell_control_fails(capsys):
    # the control fixture fixes its own dimension; no --block-dim needed
    code, stdout, _ = run_cli(capsys, "witness", "--family", "bell-control",
                              "--witness", "transpose", "--trials", "1",
                              "--seed", "0")
    assert code == 2
    lines = [json.loads(line) for line in stdout.splitlines()]
    assert lines[-1]["worst_min_eig"] == pytest.approx(-0.5, abs=1e-10)


def test_witness_choi_control_fails(capsys):
    code, stdout, _ = run_cli(capsys, "witness", "--family", "choi-control",
                              "--witness", "choi3", "--trials", "1", "--seed", "0")
    assert code == 2
    lines = [json.loads(line) for line in stdout.splitlines()]
    assert lines[-1]["worst_min_eig"] < -0.03


def test_witness_unsupported_combination_exits_2(capsys):
    code, _, err = run_cli(capsys, "witness", "--family", "span3_1",
                           "--witness", "transpose", "--trials", "1",
                           "--seed", "0", "--block-dim", "2")
    assert code == 2
    assert "UnsupportedCombination" in err


def test_console_script_version():
    proc = subprocess.run([sys.executable, "-m", "schur_dilate.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    import schur_dilate.cli as cli_mod
    from schur_dilate.errors import NoConvergence

    def explode(*args, **kwargs):
        raise NoConvergence("eigensolver gave up")

    monkeypatch.setattr(cli_mod, "psd_parametrize", explode)
    src = tmp_path / "a.json"
    out = tmp_path / "p.json"
    write_matrix(src, np.eye(2))
    code, _, err = run_cli(capsys, "param", "--kind", "psd", "--shape", "1+1",
                           "--in", str(src), "--out", str(out))
    assert code == 3
    assert "numerical failure" in err


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    # a slightly indefinite matrix passes the psd gate once the tolerance is loosened
    src = tmp_path / "a.json"
    out = tmp_path / "p.json"
    write_matrix(src, np.diag([1.0, -1e-6]))
    code, _, _ = run_cli(capsys, "param", "--kind", "psd", "--shape", "1+1",
                         "--in", str(src), "--out", str(out))
    assert code == 2
    monkeypatch.setenv("SCHUR_DILATE_TOL", "1e-4")
    code, _, _ = run_cli(capsys, "param", "--kind", "psd", "--shape", "1+1",
                         "--in", str(src), "--out", str(out))
    assert code == 0


def test_tolerance_env_reaches_povm_rank_test(tmp_path, capsys, monkeypatch):
    # second eigenvalues of 1.1e-10: rank two at the default psd_tol
    povm_file = tmp_path / "povm.json"
    out = tmp_path / "u.json"
    effects = [np.diag([1 - 1.1e-10, 1.1e-10]), np.diag([1.1e-10, 1 - 1.1e-10])]
    serialize.dump({"dim": 2, "effects": [serialize.matrix_to_obj(e.astype(complex))
                                          for e in effects]}, povm_file)
    code, _, err = run_cli(capsys, "dilate", "--povm", str(povm_file), "--out", str(out))
    assert code == 2
    assert "EffectsNotRankOne" in err
    monkeypatch.setenv("SCHUR_DILATE_TOL", "1e-8")
    code, stdout, _ = run_cli(capsys, "dilate", "--povm", str(povm_file), "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["passed"]


@pytest.mark.parametrize("value", ["inf", "nan", "-1e-4", "abc"])
def test_bad_tolerance_env_exits_1(capsys, monkeypatch, value):
    # with tol = inf the Bell projector would pass the transpose witness
    monkeypatch.setenv("SCHUR_DILATE_TOL", value)
    code, stdout, err = run_cli(capsys, "witness", "--family", "bell-control",
                                "--witness", "transpose", "--seed", "0")
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: bad SCHUR_DILATE_TOL: ")


@pytest.mark.parametrize("obj", [{"dim": 2, "vectors": []}, {"dim": 2, "effects": []}])
def test_dilate_empty_povm_exits_1(tmp_path, capsys, obj):
    povm_file = tmp_path / "povm.json"
    povm_file.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "dilate", "--povm", str(povm_file),
                           "--out", str(tmp_path / "u.json"))
    assert code == 1
    assert err == "error: at least one effect required\n"


@pytest.mark.parametrize("extra", [["--pad", "99"], ["--simulate", "3", "--seed", "1"],
                                   ["--seed", "1"]])
def test_dilate_povm_rejects_channel_flags(tmp_path, capsys, extra):
    povm_file = tmp_path / "povm.json"
    out = tmp_path / "u.json"
    serialize.dump({"dim": 1, "vectors": [[[1.0, 0.0]]]}, povm_file)
    with pytest.raises(SystemExit) as exc:
        main(["dilate", "--povm", str(povm_file), *extra, "--out", str(out)])
    assert exc.value.code == 2
    assert "apply to --channel only" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_without_seed_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dilate", "--channel", str(tmp_path / "ch.json"), "--simulate", "3",
              "--out", str(tmp_path / "u.json")])
    assert exc.value.code == 2
    assert "--simulate requires --seed" in capsys.readouterr().err


def test_witness_zero_blocks_exits_2(capsys):
    code, _, err = run_cli(capsys, "witness", "--family", "arrow_first",
                           "--witness", "transpose", "--trials", "2",
                           "--seed", "0", "--blocks", "0")
    assert code == 2
    assert "UnsupportedCombination" in err


@pytest.mark.parametrize("family", ["toeplitz2", "bell-control"])
def test_witness_zero_trials_exits_1(tmp_path, capsys, family):
    out = tmp_path / "r.jsonl"
    code, _, err = run_cli(capsys, "witness", "--family", family,
                           "--witness", "transpose", "--trials", "0",
                           "--seed", "0", "--block-dim", "2", "--out", str(out))
    assert code == 1
    assert err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("block_dim", ["0", "-2"])
def test_witness_nonpositive_block_dim_exits_1(tmp_path, capsys, block_dim):
    out = tmp_path / "r.jsonl"
    code, stdout, err = run_cli(capsys, "witness", "--family", "toeplitz2",
                                "--witness", "transpose", "--trials", "2", "--seed", "0",
                                "--block-dim", block_dim, "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err == f"error: --block-dim must be positive, got {block_dim}\n"
    assert not out.exists()


def test_witness_control_family_ignores_block_dim(capsys):
    plain = run_cli(capsys, "witness", "--family", "bell-control",
                    "--witness", "transpose", "--trials", "1", "--seed", "0")
    zero = run_cli(capsys, "witness", "--family", "bell-control", "--witness",
                   "transpose", "--trials", "1", "--seed", "0", "--block-dim", "0")
    assert zero == plain
    assert plain[0] == 2


@pytest.mark.parametrize("count", ["0", "-3"])
def test_dilate_nonpositive_simulate_exits_1(tmp_path, capsys, count):
    ch_file = tmp_path / "ch.json"
    out = tmp_path / "u.json"
    serialize.dump({"in_dim": 2, "out_dim": 2,
                    "kraus": [serialize.matrix_to_obj(np.eye(2))]}, ch_file)
    code, stdout, err = run_cli(capsys, "dilate", "--channel", str(ch_file),
                                "--simulate", count, "--seed", "1", "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err == f"error: --simulate must be positive, got {count}\n"
    assert not out.exists()


def test_one_process_runs_every_command_as_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; commands with different flags
    # run in turn must not see each other's arguments
    rng = rng_from_seed(5)
    g = complex_gaussian(rng, 6, 4)
    write_matrix(tmp_path / "a.json", dagger(g) @ g)
    write_matrix(tmp_path / "t.json", random_contraction(rng, 2, 4))
    serialize.dump({"in_dim": 2, "out_dim": 2,
                    "kraus": [serialize.matrix_to_obj(np.array([[1.0, 0.0], [0.0, 0.8]])),
                              serialize.matrix_to_obj(np.array([[0.0, 0.6], [0.0, 0.0]]))]},
                   tmp_path / "ch.json")
    serialize.dump({"dim": 2, "vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [1.0, 0.0]]]}, tmp_path / "povm.json")

    def runs(out):
        return [
            ["param", "--kind", "psd", "--shape", "2+2", "--in", str(tmp_path / "a.json"),
             "--out", str(out / "p1.json"), "--reconstruct"],
            ["witness", "--family", "arrow_second", "--witness", "choi3", "--trials", "4",
             "--seed", "3", "--blocks", "4", "--out", str(out / "w1.jsonl")],
            ["dilate", "--channel", str(tmp_path / "ch.json"), "--simulate", "5", "--seed", "2",
             "--pad", "3", "--out", str(out / "u1.json")],
            ["param", "--kind", "row", "--shape", "1+3", "--in", str(tmp_path / "t.json"),
             "--out", str(out / "p2.json")],
            ["dilate", "--povm", str(tmp_path / "povm.json"), "--out", str(out / "u2.json")],
            ["witness", "--family", "toeplitz2", "--witness", "transpose", "--trials", "3",
             "--seed", "1", "--block-dim", "2"],
        ]

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    names = ["p1.json", "w1.jsonl", "u1.json", "p2.json", "u2.json"]
    for tag in ("mem", "fresh"):
        (tmp_path / tag).mkdir()
    for argv, fresh in zip(runs(tmp_path / "mem"), runs(tmp_path / "fresh")):
        code, stdout, stderr = run_cli(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "schur_dilate.cli", *fresh],
                              env=env, capture_output=True, text=True)
        assert code == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)
    for name in names:
        assert (tmp_path / "mem" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert cli.build_parser() is cli.build_parser()


def test_usage_errors_exit_2_from_the_cached_parser(tmp_path, capsys):
    povm = ["dilate", "--povm", str(tmp_path / "povm.json"), "--out", str(tmp_path / "u.json")]
    channel = ["dilate", "--channel", str(tmp_path / "ch.json"), "--out", str(tmp_path / "u.json")]
    for _ in range(2):
        for argv in ([*povm, "--pad", "3"], [*channel, "--simulate", "3"],
                     ["witness", "--family", "toeplitz2"], ["nonsense"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err
    code, stdout, _ = run_cli(capsys, "witness", "--family", "bell-control",
                              "--witness", "transpose", "--seed", "0")
    assert code == 2
    assert json.loads(stdout.splitlines()[-1])["worst_min_eig"] == pytest.approx(-0.5)
