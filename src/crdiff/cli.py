"""Command-line entry point.

Configuration comes from an INI-style file ([run] section, key = value)
and/or flags, flags winning.  Unknown keys are rejected by name.  Every
output file starts with comment lines carrying the tool version, a hash
of the effective configuration, and the seed; identical configurations
produce byte-identical outputs for any worker count.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .brackets import index_label, smoothness_condition, span_rank
from .dirichlet import EXIT_STATUS_NAMES, koranyi_ball, solve_dirichlet
from .dirichlet import sample_exits  # noqa: F401  (bench/tracer.py wraps it here)
from .frame_bundle import FrameState
from .models import heisenberg_model, phase_rotated_heisenberg, validate_model
from .observables import (
    char_function,
    estimate_density,
    form_dt,
    form_du,
    form_dv,
    line_integral_ensemble,
    theta_form,
)
from .sde import (
    STATUS_CAPPED, STATUS_NAMES, STATUS_NONFINITE, SimConfig, simulate_ensemble,
)

COMMANDS = (
    "simulate",
    "density",
    "line-integral",
    "charfn",
    "check-model",
    "check-hormander",
    "check-smoothness",
    "dirichlet",
)

# key -> (type, default); None defaults mean "required by the command"
_MODEL_KEYS = {"model": (str, "heisenberg"), "n": (int, 1), "kappa": (float, 0.5)}
_SIM_KEYS = {
    "t_horizon": (float, 1.0),
    "steps": (int, 1000),
    "seed": (int, 0),
    "paths": (int, 1000),
    "cap": (float, 1e6),
    "reunitarize_every": (int, 1),
    "record_stride": (int, 1),
}
_IO_KEYS = {"output": (str, ""), "workers": (int, 1), "format": (str, "csv")}

_SCHEMAS: dict[str, dict] = {
    "simulate": {**_MODEL_KEYS, **_SIM_KEYS, **_IO_KEYS, "start": (str, "origin")},
    "density": {
        **_MODEL_KEYS, **_SIM_KEYS, **_IO_KEYS,
        "start": (str, "origin"),
        "window": (str, "auto"),
        "grid_points": (int, 21),
        "bandwidth": (str, "scott"),
    },
    "line-integral": {
        **_MODEL_KEYS, **_SIM_KEYS, **_IO_KEYS,
        "start": (str, "origin"),
        "form": (str, "theta"),
    },
    "charfn": {
        **_MODEL_KEYS, **_SIM_KEYS, **_IO_KEYS,
        "start": (str, "origin"),
        "observable": (str, "tau"),
        "lambdas": (str, "0.5,1,2"),
    },
    "check-model": {
        **_MODEL_KEYS, **_IO_KEYS,
        "points": (int, 20),
        "seed": (int, 0),
        "scale": (float, 1.0),
    },
    "check-hormander": {
        **_MODEL_KEYS, **_IO_KEYS,
        "points": (int, 20),
        "seed": (int, 0),
        "scale": (float, 1.0),
        "max_order": (int, 2),
    },
    "check-smoothness": {
        **_MODEL_KEYS, **_IO_KEYS,
        "form": (str, "du1"),
        "point": (str, "origin"),
        "max_order": (int, 2),
    },
    "dirichlet": {
        **_MODEL_KEYS, **_SIM_KEYS, **_IO_KEYS,
        "domain": (str, "koranyi:1.0"),
        "data": (str, "u1"),
        "start": (str, "origin"),
        "horizon_threshold": (float, 0.01),
        "delta_band": (float, 1e-4),
        "records": (str, ""),
    },
}

# keys excluded from the config hash so outputs stay byte-identical
# across worker counts and output locations
_UNHASHED = {"output", "workers", "records"}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)

    def hash(self) -> str:
        items = sorted(
            (k, v) for k, v in self.params.items() if k not in _UNHASHED
        )
        blob = "\n".join([self.command] + [f"{k}={v}" for k, v in items])
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def to_file(self, path: str) -> None:
        cp = configparser.ConfigParser()
        cp["run"] = {"command": self.command}
        for k, v in self.params.items():
            cp["run"][k] = str(v)
        with open(path, "w") as fh:
            cp.write(fh)


def _coerce(command: str, key: str, raw, schema) -> object:
    typ, _default = schema[key]
    if isinstance(raw, typ):
        return raw
    try:
        return typ(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for key '{key}' of {command}: {raw!r}") from exc


def _read_config_file(path: str) -> dict:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "run" not in cp:
        raise ConfigError(f"config file {path} lacks a [run] section")
    return dict(cp["run"])


def parse_config(argv) -> RunConfig:
    """Resolve command line plus optional config file into a RunConfig.

    Raises ConfigError (mapped to exit code 2) on unknown keys, type
    errors, or invalid values; flag values override file values.
    """
    argv = list(argv)
    parser = argparse.ArgumentParser(
        prog="crdiff",
        description="simulate sub-Laplacian diffusions on CR model charts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # only the invoked command's parser is ever used; every command is
    # added when there is none, so --help and a misspelt one list them all
    invoked = [cmd for cmd in argv[:1] if cmd in COMMANDS]
    for cmd in invoked or COMMANDS:
        p = sub.add_parser(cmd)
        if cmd not in invoked:
            continue
        p.add_argument("--config", default=None, help="INI file with a [run] section")
        for key, (typ, _default) in _SCHEMAS[cmd].items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ, default=None)
    ns = parser.parse_args(argv)
    command = ns.command
    schema = _SCHEMAS[command]
    params = {k: d for k, (t, d) in schema.items()}

    if ns.config is not None:
        file_items = _read_config_file(ns.config)
        for key, raw in file_items.items():
            if key == "command":
                if raw != command:
                    raise ConfigError(
                        f"config file is for command '{raw}', invoked '{command}'"
                    )
                continue
            if key not in schema:
                raise ConfigError(f"unknown key '{key}' for command {command}")
            params[key] = _coerce(command, key, raw, schema)

    for key in schema:
        val = getattr(ns, key)
        if val is not None:
            params[key] = val

    _validate(command, params)
    return RunConfig(command=command, params=params)


def _validate(command: str, params: dict) -> None:
    pos = {"n": 1, "paths": 1, "steps": 0, "points": 1, "grid_points": 2,
           "max_order": 1, "workers": 1, "record_stride": 1}
    for key, lo in pos.items():
        if key in params and params[key] < lo:
            raise ConfigError(f"key '{key}' must be >= {lo}")
    # SimConfig's range (np.random.SeedSequence refuses a negative seed)
    if "seed" in params and not 0 <= params["seed"] < 2**64:
        raise ConfigError("key 'seed' must lie in [0, 2**64)")
    if "t_horizon" in params and not 0 < params["t_horizon"] < np.inf:
        raise ConfigError("key 't_horizon' must be positive and finite")
    # an infinite cap is allowed: it means no cap
    if "cap" in params and not params["cap"] > 0:
        raise ConfigError("key 'cap' must be positive")
    if "delta_band" in params and not 0 < params["delta_band"] < np.inf:
        raise ConfigError("key 'delta_band' must be positive and finite")
    if "horizon_threshold" in params and not 0 <= params["horizon_threshold"] <= 1:
        raise ConfigError("key 'horizon_threshold' must lie in [0, 1]")
    if "kappa" in params and not np.isfinite(params["kappa"]):
        raise ConfigError("key 'kappa' must be finite")
    if "format" in params and params["format"] not in ("csv", "pretty-text"):
        raise ConfigError("key 'format' must be csv or pretty-text")


# ---------------------------------------------------------------------------
# helpers


CSV_CHUNK = 4096  # table rows formatted per printf call

# printf code per column dtype kind; any other kind (str, object) is %s
_CSV_CODES = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}


def _model(params):
    name, n = params["model"], params["n"]
    if name == "heisenberg":
        return heisenberg_model(n)
    if name == "heisenberg_phase":
        return phase_rotated_heisenberg(n, params.get("kappa", 0.5))
    raise ConfigError(f"unknown model '{name}'")


def _floats(key: str, raw: str, length: int | None = None) -> np.ndarray:
    """The comma-separated finite numbers of key ``key``, optionally exactly ``length``."""
    try:
        vals = np.array([float(s) for s in raw.split(",")])
    except ValueError:
        raise ConfigError(f"key '{key}' needs comma-separated numbers, got {raw!r}") from None
    if not np.isfinite(vals).all():
        raise ConfigError(f"key '{key}' needs finite numbers, got {raw!r}")
    if length is not None and vals.size != length:
        raise ConfigError(f"key '{key}' needs {length} comma-separated numbers, got {raw!r}")
    return vals


def _point(params, key: str, dim: int) -> np.ndarray:
    """The chart point of key ``key``: ``origin`` or dim coordinates."""
    raw = params[key]
    return np.zeros(dim) if raw == "origin" else _floats(key, raw, dim)


def _sim_config(params) -> SimConfig:
    try:
        return SimConfig(
            t_horizon=params["t_horizon"],
            n_steps=params["steps"],
            seed=params["seed"],
            reunitarize_every=params["reunitarize_every"],
            record_stride=params["record_stride"],
            coordinate_cap=params["cap"],
        )
    except ValueError as exc:
        raise ConfigError(f"key 'steps': {exc}") from exc


def _form(params, n):
    raw = params["form"]
    if raw == "theta":
        return None  # resolved against the model by callers
    if raw == "dt":
        return form_dt(n)
    kind, idx = raw[:2], raw[2:]
    if kind in ("du", "dv") and idx.isdigit() and 1 <= int(idx) <= n:
        return form_du(n, int(idx)) if kind == "du" else form_dv(n, int(idx))
    raise ConfigError(f"unknown form preset '{raw}'")


def _output_path(params, command) -> str:
    out = params.get("output") or ""
    if out:
        return out
    base = os.environ.get("CRDIFF_OUTPUT_DIR", ".")
    return os.path.join(base, f"{command.replace('-', '_')}.csv")


def _write_csv(path: str, cfg: RunConfig, columns, table, extra_comments=()) -> None:
    """Write header comments, the column names and one row per table entry.

    ``table`` holds one 1-D array per column, all of one length and one
    per name in ``columns``; each column's dtype kind picks its printf
    code (``_CSV_CODES``), and the row template is repeated over chunks
    of ``CSV_CHUNK`` rows, one printf per chunk.  A ``str`` or object
    column is written verbatim through ``%s``, so a caller may pass
    numbers it formatted itself.  Number strings hold no comma, so
    quoting the ``%s`` cells that hold one would leave them unchanged.
    """
    table = [np.asarray(col) for col in table]
    if len(columns) != len(table):
        raise ValueError(f"{len(columns)} column names for {len(table)} columns")
    if len({col.shape for col in table}) > 1:
        raise ValueError(f"CSV columns differ in shape: {[col.shape for col in table]}")
    lines = [
        f"# crdiff {__version__}",
        f"# config {cfg.hash()}",
        f"# seed {cfg.params.get('seed', 0)}",
    ]
    lines += [f"# {c}" for c in extra_comments]
    lines.append(",".join(columns))
    row = ",".join(_CSV_CODES.get(col.dtype.kind, "%s") for col in table) + "\n"
    n_rows = table[0].shape[0]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        for lo in range(0, n_rows, CSV_CHUNK):
            # the chunk's cells in row-major order, one printf per chunk
            k = min(CSV_CHUNK, n_rows - lo)
            cells = [None] * (k * len(table))
            for j, col in enumerate(table):
                cells[j :: len(table)] = col[lo : lo + k].tolist()
            fh.write(row * k % tuple(cells))


def _coord_names(n):
    names = []
    for a in range(1, n + 1):
        names += [f"u{a}", f"v{a}"]
    return names + ["tau"]


# ---------------------------------------------------------------------------
# command implementations


def _cmd_simulate(cfg: RunConfig) -> int:
    p = cfg.params
    m = _model(p)
    sim = _sim_config(p)
    s0 = FrameState(_point(p, "start", m.dim), np.eye(m.n))
    ens = simulate_ensemble(
        m, s0, sim, p["paths"], n_workers=p["workers"], record=True
    )
    rec = ens.records
    cols = (["path_id", "time"] + _coord_names(m.n)
            + [f"e{i+1}{j+1}_{part}" for i in range(m.n) for j in range(m.n)
               for part in ("re", "im")]
            + ["status"])
    # one row per recorded state, by path then time
    pid, t_idx = np.nonzero(rec.valid.T)
    e = rec.e[t_idx, pid]
    frame = np.stack([e.real, e.imag], axis=-1).reshape(pid.size, -1)
    status = np.array(STATUS_NAMES)[ens.status[pid]]
    out = _output_path(p, cfg.command)
    _write_csv(out, cfg, cols,
               [pid, rec.times[t_idx], *rec.x[t_idx, pid].T, *frame.T, status])
    nonfinite = np.count_nonzero(ens.status == STATUS_NONFINITE)
    print(f"simulate: {ens.n_paths} paths x {sim.n_steps} steps, "
          f"capped {ens.capped_fraction:.2%}, nonfinite {nonfinite}, "
          f"seed={p['seed']} -> {out}")
    return 0 if ens.completed.any() else 1


def _cmd_density(cfg: RunConfig) -> int:
    p = cfg.params
    m = _model(p)
    sim = _sim_config(p)
    s0 = FrameState(_point(p, "start", m.dim), np.eye(m.n))
    if p["window"] != "auto":
        try:
            window = np.array(
                [[float(a) for a in pair.split(":")] for pair in p["window"].split(",")]
            )
        except ValueError as exc:
            raise ConfigError(f"key 'window': {exc}") from exc
        if window.shape != (m.dim, 2):
            raise ConfigError(f"key 'window' needs {m.dim} lo:hi pairs")
        if not (np.isfinite(window).all() and (window[:, 0] < window[:, 1]).all()):
            raise ConfigError(
                f"key 'window' needs finite lo:hi pairs with lo < hi, got {p['window']!r}")
    bw = p["bandwidth"]
    if bw not in ("scott", "silverman"):
        bw = _floats("bandwidth", bw, m.dim)
        if not (bw > 0).all():
            raise ConfigError(f"key 'bandwidth' must be positive per axis, got {p['bandwidth']!r}")
    ens = simulate_ensemble(m, s0, sim, p["paths"], n_workers=p["workers"])
    samples = ens.x[ens.completed]
    if samples.shape[0] < 100:
        print("density: fewer than 100 completed paths", file=sys.stderr)
        return 1
    if p["window"] == "auto":
        lo, hi = samples.min(axis=0), samples.max(axis=0)
        pad = 0.05 * (hi - lo)
        window = np.stack([lo - pad, hi + pad], axis=1)
    try:
        est = estimate_density(ens, m, window, grid_points=p["grid_points"], bandwidth=bw)
    except ValueError as exc:
        # no completed sample inside the explicit window, or samples that
        # share a coordinate (a zero-width auto window or a zero bandwidth)
        print(f"density: {exc}", file=sys.stderr)
        return 1
    # one row per grid node: its coordinates, then the density; each axis
    # is formatted once and its strings laid out as the float nodes would be
    labels = [np.array(["%.17g" % v for v in ax.tolist()], dtype=object)
              for ax in est.axes]
    nodes = np.meshgrid(*labels, indexing="ij")
    table = [col.ravel() for col in (*nodes, est.values)]
    out = _output_path(p, cfg.command)
    meta = [
        "bandwidth " + ",".join("%.17g" % b for b in est.bandwidth),
        f"n_samples {est.n_samples}",
        "normalization %.17g" % est.normalization(),
    ]
    _write_csv(out, cfg, _coord_names(m.n) + ["density"], table, extra_comments=meta)
    print(f"density: {est.n_samples} samples on {p['grid_points']}^{m.dim} grid, "
          f"seed={p['seed']} -> {out}")
    return 0


def _cmd_line_integral(cfg: RunConfig) -> int:
    p = cfg.params
    m = _model(p)
    sim = _sim_config(p)
    s0 = FrameState(_point(p, "start", m.dim), np.eye(m.n))
    form = _form(p, m.n) or theta_form(m)
    ens = line_integral_ensemble(m, s0, sim, p["paths"], form, n_workers=p["workers"])
    # a stopped path's integral covers only part of the run: it has none
    done = ens.completed
    vals = np.where(done, ens.observables["line_integral"], np.nan)
    out = _output_path(p, cfg.command)
    _write_csv(out, cfg, ["path_id", "value"], [np.arange(ens.n_paths), vals],
               extra_comments=[f"form {form.name}"])
    capped = np.count_nonzero(ens.status == STATUS_CAPPED)
    nonfinite = np.count_nonzero(ens.status == STATUS_NONFINITE)
    if not done.any():
        print(f"line-integral: no path completed (capped {capped}, "
              f"nonfinite {nonfinite})", file=sys.stderr)
        return 1
    print(f"line-integral[{form.name}]: {ens.n_paths} paths, "
          f"mean {vals[done].mean():.6g}, capped {capped}, nonfinite {nonfinite}, "
          f"seed={p['seed']} -> {out}")
    return 0


def _cmd_charfn(cfg: RunConfig) -> int:
    p = cfg.params
    m = _model(p)
    sim = _sim_config(p)
    s0 = FrameState(_point(p, "start", m.dim), np.eye(m.n))
    obs = p["observable"]
    names = _coord_names(m.n)
    if obs not in names:
        raise ConfigError(f"key 'observable' must be one of {names}")
    lambdas = _floats("lambdas", p["lambdas"])
    ens = simulate_ensemble(m, s0, sim, p["paths"], n_workers=p["workers"])
    samples = ens.x[ens.completed][:, names.index(obs)]
    if samples.size < 100:
        print("charfn: fewer than 100 completed paths", file=sys.stderr)
        return 1
    cf = char_function(samples, lambdas)
    out = _output_path(p, cfg.command)
    _write_csv(out, cfg, ["lambda", "re", "im", "se_re", "se_im"],
               [cf.lambdas, cf.values.real, cf.values.imag, cf.stderr_re, cf.stderr_im],
               extra_comments=[f"observable {obs}", f"n_samples {samples.size}"])
    print(f"charfn[{obs}]: {samples.size} samples, seed={p['seed']} -> {out}")
    return 0


def _probe_points(p, dim) -> np.ndarray:
    rng = np.random.default_rng(p["seed"])
    return rng.uniform(-p["scale"], p["scale"], size=(p["points"], dim))


def _cmd_check_model(cfg: RunConfig) -> int:
    p = cfg.params
    m = _model(p)
    rep = validate_model(m, _probe_points(p, m.dim))
    print(rep.as_text())
    if p["format"] == "csv" and p.get("output"):
        checks = rep.checks
        _write_csv(p["output"], cfg, ["check", "residual", "tol", "passed"],
                   [[c.name for c in checks], [c.residual for c in checks],
                    [c.tol for c in checks], [c.passed for c in checks]])
    print(f"check-model: {'pass' if rep.passed else 'FAIL'}, seed={p['seed']}")
    return 0 if rep.passed else 1


def _cmd_check_hormander(cfg: RunConfig) -> int:
    p = cfg.params
    m = _model(p)
    pts = _probe_points(p, m.dim)
    table = span_rank(m, pts, p["max_order"])
    sv = table.singular_values[:, : m.dim]
    sv = np.pad(sv, ((0, 0), (0, m.dim - sv.shape[1])))
    cols = _coord_names(m.n) + ["rank"] + [f"sv{i+1}" for i in range(m.dim)]
    out = _output_path(p, cfg.command)
    _write_csv(out, cfg, cols, [*pts.T, table.rank, *sv.T],
               extra_comments=[f"max_order {p['max_order']}"])
    ranks = np.unique(table.rank).tolist()
    print(f"check-hormander: order {p['max_order']}, ranks {ranks}, "
          f"seed={p['seed']} -> {out}")
    return 0


def _cmd_check_smoothness(cfg: RunConfig) -> int:
    p = cfg.params
    m = _model(p)
    form = _form(p, m.n) or theta_form(m)
    point = _point(p, "point", m.dim)
    ok, witness, value = smoothness_condition(m, form, point, p["max_order"])
    if ok:
        tag = ",".join(index_label(a) for a in witness)
        print(f"check-smoothness[{form.name}]: satisfied, witness ({tag}), "
              f"|phi| = {abs(value):.6g}, order {len(witness)}")
    else:
        print(f"check-smoothness[{form.name}]: not satisfied up to order "
              f"{p['max_order']}")
    if p["format"] == "csv" and p.get("output"):
        _write_csv(p["output"], cfg, ["form", "satisfied", "witness", "abs_phi"],
                   [[form.name], [ok],
                    [",".join(index_label(a) for a in witness or ())], [abs(value)]])
    return 0


def _cmd_dirichlet(cfg: RunConfig) -> int:
    p = cfg.params
    m = _model(p)
    sim = _sim_config(p)
    dom_raw = p["domain"]
    if dom_raw.startswith("koranyi:"):
        try:
            domain = koranyi_ball(m.n, float(dom_raw.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"key 'domain': {exc}") from None
    else:
        raise ConfigError(f"unknown domain preset '{dom_raw}'")
    data_raw = p["data"]
    names = _coord_names(m.n)
    if data_raw.startswith("const:"):
        try:
            c = float(data_raw.split(":", 1)[1])
        except ValueError:
            msg = f"key 'data' needs a number after 'const:', got {data_raw!r}"
            raise ConfigError(msg) from None
        f = lambda x: np.full(x.shape[:-1], c)
    elif data_raw in names:
        idx = names.index(data_raw)
        f = lambda x: x[..., idx]
    else:
        raise ConfigError(f"unknown boundary data preset '{data_raw}'")
    x0 = _point(p, "start", m.dim)
    # a path from outside would "exit" where it starts, at tau = 0
    phi0 = float(domain.phi_at(x0))
    if phi0 > 0:
        raise ConfigError(
            f"key 'start' lies outside the domain {domain.name} (phi = {phi0:.6g})")
    try:
        res = solve_dirichlet(
            m, domain, f, x0, p["paths"], sim, n_workers=p["workers"],
            horizon_threshold=p["horizon_threshold"], delta_band=p["delta_band"],
        )
    except RuntimeError as exc:
        print(f"dirichlet: {exc}", file=sys.stderr)
        return 1
    out = _output_path(p, cfg.command)
    _write_csv(
        out, cfg,
        ["estimate", "stderr", "n_used", "horizon_fraction", "flagged", "collar_max"],
        [[res.estimate], [res.stderr], [res.n_used], [res.horizon_fraction],
         [res.flagged], [res.collar_max]],
        extra_comments=[f"domain {domain.name}", f"data {data_raw}"],
    )
    if p.get("records"):
        batch = res.batch
        _write_csv(p["records"], cfg,
                   ["path_id", "tau"] + names + ["status", "phi_residual"],
                   [np.arange(p["paths"]), batch.tau, *batch.points.T,
                    np.array(EXIT_STATUS_NAMES)[batch.status], batch.phi_residual])
    flag = ""
    if res.flagged:
        flag = " [FLAGGED: share of paths that did not exit above threshold]"
    print(
        f"dirichlet[{data_raw}@{domain.name}]: estimate {res.estimate:.6g} "
        f"+- {res.stderr:.2g}, horizon {res.horizon_fraction:.2%}, "
        f"collar {res.collar_max:.2e}, nonfinite {res.batch.nonfinite_count}, "
        f"level-budget exits {res.level_budget_exits}, seed={p['seed']} -> {out}{flag}"
    )
    return 0


_RUNNERS = {
    "simulate": _cmd_simulate,
    "density": _cmd_density,
    "line-integral": _cmd_line_integral,
    "charfn": _cmd_charfn,
    "check-model": _cmd_check_model,
    "check-hormander": _cmd_check_hormander,
    "check-smoothness": _cmd_check_smoothness,
    "dirichlet": _cmd_dirichlet,
}


def run(cfg: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    try:
        return _RUNNERS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"crdiff: config error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"crdiff: config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
