"""Command-line interface: config resolution, outputs, determinism."""

import dataclasses
import os

import numpy as np
import pytest

import crdiff.cli as cli
from crdiff.cli import ConfigError, main, parse_config, run


def test_parse_minimal_flags():
    cfg = parse_config(
        "simulate --model heisenberg --n 1 --t-horizon 1 --steps 1000 "
        "--paths 100 --seed 7".split()
    )
    assert cfg.command == "simulate"
    assert cfg.params["seed"] == 7
    assert cfg.params["paths"] == 100
    assert cfg.params["model"] == "heisenberg"


def test_help_lists_commands_and_their_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(cmd in out for cmd in cli.COMMANDS)
    for cmd in cli.COMMANDS:
        with pytest.raises(SystemExit) as exc:
            parse_config([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        flags = {f"--{key.replace('_', '-')}" for key in cli._SCHEMAS[cmd]} | {"--config"}
        assert all(flag in out for flag in flags), cmd
        others = {f"--{key.replace('_', '-')}" for schema in cli._SCHEMAS.values()
                  for key in schema} - flags
        assert not any(f"{flag} " in out for flag in others), cmd


def test_flag_of_another_command_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config("check-model --max-order 3".split())
    assert exc.value.code == 2
    assert "--max-order" in capsys.readouterr().err


def test_negative_steps_rejected_with_key_name(capsys):
    code = main("simulate --steps -5 --paths 10 --seed 1".split())
    assert code == 2
    assert "steps" in capsys.readouterr().err


def test_unknown_file_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[run]\ncommand = simulate\nstepz = 10\n")
    code = main(["simulate", "--config", str(cfg_file)])
    assert code == 2
    assert "stepz" in capsys.readouterr().err


def test_flag_overrides_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[run]\ncommand = simulate\nseed = 1\npaths = 11\n")
    cfg = parse_config(["simulate", "--config", str(cfg_file), "--seed", "9"])
    assert cfg.params["seed"] == 9
    assert cfg.params["paths"] == 11


def test_config_roundtrip(tmp_path):
    cfg = parse_config(
        "dirichlet --domain koranyi:0.5 --data tau --paths 17 --seed 4".split()
    )
    out = tmp_path / "saved.cfg"
    cfg.to_file(str(out))
    again = parse_config(["dirichlet", "--config", str(out)])
    assert again.params == cfg.params
    assert again.hash() == cfg.hash()


def test_hash_ignores_output_and_workers():
    a = parse_config("simulate --seed 3 --paths 10 --workers 1 --output a.csv".split())
    b = parse_config("simulate --seed 3 --paths 10 --workers 8 --output b.csv".split())
    assert a.hash() == b.hash()


def test_check_model_passes(capsys):
    code = main("check-model --model heisenberg --n 2 --points 20".split())
    assert code == 0
    out = capsys.readouterr().out
    assert "residual" in out
    assert "pass" in out


def test_check_model_gauge_variant(capsys):
    code = main("check-model --model heisenberg_phase --kappa 0.7 --points 10".split())
    assert code == 0


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_simulate_csv_header_and_determinism(tmp_path):
    out = tmp_path / "sim.csv"
    args = (
        f"simulate --paths 12 --steps 40 --record-stride 20 --seed 5 "
        f"--output {out}"
    ).split()
    assert main(args) == 0
    first = _read(out)
    text = first.decode()
    lines = text.splitlines()
    assert lines[0].startswith("# crdiff ")
    assert lines[1].startswith("# config ")
    assert lines[2] == "# seed 5"
    assert lines[3].split(",")[:5] == ["path_id", "time", "u1", "v1", "tau"]
    assert main(args) == 0
    assert _read(out) == first


def test_simulate_worker_bytes_identical(tmp_path):
    outs = []
    for workers in (1, 4):
        out = tmp_path / f"sim_w{workers}.csv"
        args = (
            f"simulate --paths 4200 --steps 25 --record-stride 25 --seed 6 "
            f"--workers {workers} --output {out}"
        ).split()
        assert main(args) == 0
        outs.append(_read(out))
    assert outs[0] == outs[1]


def test_density_command(tmp_path):
    out = tmp_path / "dens.csv"
    args = (
        f"density --paths 500 --steps 100 --seed 8 --grid-points 7 "
        f"--output {out}"
    ).split()
    assert main(args) == 0
    text = _read(out).decode()
    assert "# bandwidth" in text
    header = next(l for l in text.splitlines() if not l.startswith("#"))
    assert header.endswith("density")


def test_line_integral_command(tmp_path):
    out = tmp_path / "li.csv"
    args = f"line-integral --form theta --paths 50 --steps 100 --seed 9 --output {out}".split()
    assert main(args) == 0
    rows = [l for l in _read(out).decode().splitlines() if not l.startswith("#")]
    vals = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.abs(vals).max() <= 1e-12


def test_charfn_command(tmp_path):
    out = tmp_path / "cf.csv"
    args = (
        f"charfn --observable tau --lambdas 0.5,1 --paths 400 --steps 100 "
        f"--seed 10 --output {out}"
    ).split()
    assert main(args) == 0
    rows = [l for l in _read(out).decode().splitlines() if not l.startswith("#")]
    assert rows[0] == "lambda,re,im,se_re,se_im"
    assert len(rows) == 3


def test_check_hormander_command(tmp_path):
    out = tmp_path / "rank.csv"
    args = f"check-hormander --points 5 --max-order 2 --seed 11 --output {out}".split()
    assert main(args) == 0
    rows = [l for l in _read(out).decode().splitlines() if not l.startswith("#")]
    ranks = {int(r.split(",")[3]) for r in rows[1:]}
    assert ranks == {3}


def test_check_hormander_jacobian_calls_independent_of_points(tmp_path, monkeypatch):
    """Bracket generations are evaluated once over all probe points."""
    calls = []
    build = cli.phase_rotated_heisenberg

    def counted_model(*args, **kwargs):
        m = build(*args, **kwargs)

        def frame_jacobian(x):
            calls.append(np.shape(x))
            return m.frame_jacobian(x)

        return dataclasses.replace(m, frame_jacobian=frame_jacobian)

    monkeypatch.setattr(cli, "phase_rotated_heisenberg", counted_model)
    counts = []
    for points in (5, 20):
        calls.clear()
        args = (f"check-hormander --model heisenberg_phase --n 2 --max-order 3 "
                f"--points {points} --output {tmp_path / 'rank.csv'}").split()
        assert main(args) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_check_smoothness_command(capsys):
    assert main("check-smoothness --form du1 --max-order 1".split()) == 0
    out = capsys.readouterr().out
    assert "satisfied" in out
    assert "witness (1)" in out


def test_check_smoothness_vertical_form(capsys):
    assert main("check-smoothness --form dt --max-order 2".split()) == 0
    out = capsys.readouterr().out
    assert "witness (1,1*)" in out


def test_dirichlet_command_and_flag_marker(tmp_path, capsys):
    out = tmp_path / "dir.csv"
    args = (
        f"dirichlet --domain koranyi:1.0 --data u1 --start 0.2,0,0 "
        f"--paths 150 --steps 2000 --t-horizon 4 --seed 12 --output {out}"
    ).split()
    assert main(args) == 0
    line = [l for l in _read(out).decode().splitlines() if not l.startswith("#")][1]
    estimate = float(line.split(",")[0])
    assert abs(estimate - 0.2) < 0.1
    # path counts go to the summary line only, not the CSV
    summary = capsys.readouterr().out
    assert "nonfinite 0, level-budget exits 0" in summary
    # a horizon too short to drain flags the result but still exits 0
    out2 = tmp_path / "dir2.csv"
    args2 = (
        f"dirichlet --domain koranyi:1.0 --data u1 --start 0.9,0,0 --paths 60 "
        f"--steps 200 --t-horizon 0.05 --seed 13 --output {out2}"
    ).split()
    assert main(args2) == 0
    assert "FLAGGED" in capsys.readouterr().out


def test_dirichlet_records_reuse_the_solve_batch(tmp_path, monkeypatch):
    import crdiff.cli as cli
    import crdiff.dirichlet as dirichlet

    calls = []
    real = dirichlet.sample_exits

    def counting(*args, **kwargs):
        calls.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(dirichlet, "sample_exits", counting)
    monkeypatch.setattr(cli, "sample_exits", counting)
    rec = tmp_path / "rec.csv"
    args = (
        f"dirichlet --domain koranyi:1.0 --data u1 --start 0.5,0,0 --paths 40 "
        f"--steps 400 --t-horizon 2 --seed 15 --output {tmp_path / 'est.csv'} "
        f"--records {rec}"
    ).split()
    assert main(args) == 0
    assert calls == [40]
    rows = [l for l in _read(rec).decode().splitlines() if not l.startswith("#")]
    assert len(rows) == 41


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CRDIFF_OUTPUT_DIR", str(tmp_path))
    assert main("line-integral --form du1 --paths 20 --steps 20 --seed 14".split()) == 0
    assert (tmp_path / "line_integral.csv").exists()


def test_run_rejects_unknown_model():
    cfg = parse_config("simulate --paths 5 --steps 5 --seed 1".split())
    cfg.params["model"] = "nope"
    assert run(cfg) == 2


def test_parse_config_raises_for_bad_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(["simulate", "--config", str(tmp_path / "missing.cfg")])


def test_all_paths_capped_is_runtime_failure(tmp_path):
    out = tmp_path / "capped.csv"
    args = (
        f"simulate --paths 20 --steps 50 --cap 1e-4 --seed 15 --output {out}"
    ).split()
    assert main(args) == 1
