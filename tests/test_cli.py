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


@pytest.mark.parametrize("argv", [["simulat"], ["--paths", "10"], []])
def test_unknown_command_lists_every_command(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(cmd in err for cmd in cli.COMMANDS)


def test_flag_of_another_command_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config("check-model --max-order 3".split())
    assert exc.value.code == 2
    assert "--max-order" in capsys.readouterr().err


def test_negative_steps_rejected_with_key_name(capsys):
    code = main("simulate --steps -5 --paths 10 --seed 1".split())
    assert code == 2
    assert "steps" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    ("simulate --start a,b,c", "start"),
    ("charfn --lambdas x", "lambdas"),
    ("density --bandwidth 1,x,2", "bandwidth"),
    ("density --bandwidth 1,2", "bandwidth"),
    ("density --bandwidth 1,-2,1", "bandwidth"),
    ("dirichlet --domain koranyi:abc", "domain"),
    ("dirichlet --domain koranyi:-1", "domain"),
    ("dirichlet --data const:x", "data"),
    ("check-smoothness --point 1,2", "point"),
    ("simulate --start nan,0,0", "start"),
    ("simulate --start 0,-inf,0", "start"),
    ("charfn --lambdas 1,inf", "lambdas"),
    ("density --bandwidth 1,nan,1", "bandwidth"),
    ("check-smoothness --point 0,0,inf", "point"),
    ("density --window=-inf:inf,-1:1,-1:1", "window"),
    ("density --window=1:-1,-1:1,-1:1", "window"),
    ("density --window=-1:nan,-1:1,-1:1", "window"),
    ("dirichlet --delta-band nan", "delta_band"),
    ("dirichlet --delta-band 0", "delta_band"),
    ("dirichlet --delta-band inf", "delta_band"),
    ("dirichlet --horizon-threshold -1", "horizon_threshold"),
    ("dirichlet --horizon-threshold nan", "horizon_threshold"),
    ("dirichlet --horizon-threshold 1.5", "horizon_threshold"),
    ("dirichlet --model heisenberg_phase --kappa inf", "kappa"),
    ("simulate --model heisenberg_phase --kappa nan", "kappa"),
    ("line-integral --paths 10 --steps 5 --t-horizon inf", "t_horizon"),
    ("dirichlet --t-horizon inf", "t_horizon"),
    ("simulate --t-horizon nan", "t_horizon"),
    ("simulate --seed=-1", "seed"),
    ("check-model --seed=-1", "seed"),
    ("dirichlet --seed=-1", "seed"),
    ("simulate --seed 18446744073709551616", "seed"),
    ("dirichlet --domain koranyi:inf", "domain"),
    ("dirichlet --domain koranyi:nan", "domain"),
])
def test_malformed_value_is_config_error(argv, key, tmp_path, capsys, monkeypatch):
    """A malformed value exits 2 naming its key, before any path is run."""
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the value was checked")

    monkeypatch.setattr(cli, "simulate_ensemble", no_paths)
    monkeypatch.setattr(cli, "solve_dirichlet", no_paths)
    code = main(argv.split() + ["--output", str(tmp_path / "out.csv")])
    assert code == 2
    assert f"key '{key}'" in capsys.readouterr().err


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


def test_simulate_summary_counts_nonfinite_paths(tmp_path, capsys, monkeypatch,
                                                 nan_beyond):
    """Paths that turn NaN are named in the summary line, beside capped."""
    heisenberg = cli.heisenberg_model
    monkeypatch.setattr(cli, "heisenberg_model",
                        lambda n: nan_beyond(heisenberg(n), 0.6))
    out = tmp_path / "sim.csv"
    args = f"simulate --paths 50 --steps 40 --seed 5 --output {out}".split()
    assert main(args) == 0
    summary = capsys.readouterr().out
    assert "capped 0.00%, nonfinite " in summary
    count = int(summary.split("nonfinite ")[1].split(",")[0])
    assert 0 < count < 50


def test_density_empty_window_is_runtime_failure(tmp_path, capsys):
    """An explicit window with no completed sample inside exits 1 with one
    line on stderr, not a traceback."""
    out = tmp_path / "dens.csv"
    args = (f"density --paths 200 --steps 10 --window=5:6,5:6,5:6 "
            f"--output {out}").split()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("density: ") and "window" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_density_zero_bandwidth_is_runtime_failure(tmp_path, capsys):
    """Samples without spread (no steps) give a zero Scott bandwidth on
    every axis: exit 1 naming the axis, where the table was all NaN."""
    out = tmp_path / "dens.csv"
    args = (f"density --steps 0 --paths 200 --window=-1:1,-1:1,-1:1 "
            f"--output {out}").split()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("density: ") and "bandwidth is 0 on axis 0" in err
    assert err.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    # 21^3 = 9261 rows: three CSV_CHUNKs
    "density --model heisenberg_phase --n 1 --paths 300 --steps 20 --seed 12",
    # 6^5 = 7776 rows
    "density --model heisenberg --n 2 --grid-points 6 --paths 300 --steps 20 --seed 13",
    # the v1 axis ends at -0, the u1 axis starts at +0
    "density --paths 400 --steps 20 --seed 14 --window=-0:1,-1:-0,-1:1",
])
def test_density_csv_matches_per_cell_reference(argv, tmp_path, monkeypatch):
    """The density body is the float node mesh and the density, each cell
    formatted on its own with %.17g."""
    seen = []

    def estimate(*args, **kwargs):
        seen.append(cli_estimate(*args, **kwargs))
        return seen[-1]

    cli_estimate = cli.estimate_density
    monkeypatch.setattr(cli, "estimate_density", estimate)
    out = tmp_path / "dens.csv"
    assert main(argv.split() + ["--output", str(out)]) == 0
    est, = seen
    nodes = np.meshgrid(*est.axes, indexing="ij")
    cells = np.stack([col.ravel() for col in (*nodes, est.values)], axis=1)
    expected = [",".join("%.17g" % v for v in row) for row in cells.tolist()]
    body = [l for l in _read(out).decode().splitlines() if not l.startswith("#")][1:]
    assert body == expected
    if "-1:-0" in argv:
        assert {r.split(",")[1] for r in body} >= {"-1", "-0"}
        assert {r.split(",")[0] for r in body} >= {"0", "1"}


@pytest.mark.parametrize("names, table, match", [
    (["a", "b"], [[1.0, 2.0]], "2 column names for 1 columns"),
    (["a", "b", "c"], [[1.0], [2.0]], "3 column names for 2 columns"),
    (["a", "b"], [[1.0, 2.0], [3.0, 4.0, 5.0]], "differ in shape"),
    (["a", "b"], [[1.0, 2.0, 3.0], [4.0]], "differ in shape"),
])
def test_write_csv_rejects_mismatched_columns(names, table, match, tmp_path):
    out = tmp_path / "t.csv"
    cfg = parse_config(["check-model"])
    with pytest.raises(ValueError, match=match):
        cli._write_csv(str(out), cfg, names, table)
    assert not out.exists()


def test_line_integral_command(tmp_path):
    out = tmp_path / "li.csv"
    args = f"line-integral --form theta --paths 50 --steps 100 --seed 9 --output {out}".split()
    assert main(args) == 0
    rows = [l for l in _read(out).decode().splitlines() if not l.startswith("#")]
    vals = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.abs(vals).max() <= 1e-12


def test_line_integral_stopped_paths_have_no_value(tmp_path, capsys):
    """A capped path's partial integral is not a value: it is written nan
    and left out of the mean, and a run where no path completed fails."""
    out = tmp_path / "li.csv"
    args = f"line-integral --paths 20 --steps 50 --cap 0.8 --form du1 --seed 0 --output {out}"
    assert main(args.split()) == 0
    rows = [l for l in _read(out).decode().splitlines() if not l.startswith("#")]
    vals = np.array([float(r.split(",")[1]) for r in rows[1:]])
    capped = int(np.isnan(vals).sum())
    assert 0 < capped < 20
    summary = capsys.readouterr().out
    assert f"mean {np.mean(vals[~np.isnan(vals)]):.6g}, capped {capped}, nonfinite 0" in summary

    assert main(args.replace("--cap 0.8", "--cap 0.3").split()) == 1
    rows = [l for l in _read(out).decode().splitlines() if not l.startswith("#")]
    assert [r.split(",")[1] for r in rows[1:]] == ["nan"] * 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "line-integral: no path completed (capped 20, nonfinite 0)"]


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


def test_charfn_too_few_paths_is_runtime_failure(tmp_path, capsys):
    """Fewer than 100 completed paths exit 1 with one line on stderr, as
    density does, not a traceback."""
    out = tmp_path / "cf.csv"
    assert main(f"charfn --paths 50 --steps 10 --output {out}".split()) == 1
    err = capsys.readouterr().err
    assert err == "charfn: fewer than 100 completed paths\n"
    assert not out.exists()


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


def test_dirichlet_start_outside_domain_is_config_error(tmp_path, capsys,
                                                        monkeypatch):
    """A start outside the domain is refused before any path runs: every
    path would exit at tau = 0 where it started."""
    import crdiff.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("solve_dirichlet called")

    monkeypatch.setattr(cli, "solve_dirichlet", no_run)
    out = tmp_path / "dir.csv"
    args = f"dirichlet --paths 20 --steps 10 --start=2,0,0 --output {out}".split()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("crdiff: config error: key 'start'")
    assert err.count("\n") == 1
    assert not out.exists()


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
