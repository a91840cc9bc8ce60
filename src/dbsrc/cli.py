"""Command-line front end.

Subcommands emit CSV: feedforward contour grids over the reference
angles (map), open-loop reference-tracking sweeps (trajectory),
fixed-frequency dimming curves (lowpower) and the closed-loop battery
charge scenario (charge).

Configuration is a flat key = value text file (# comments allowed);
--set key=value overrides file values.  Each command maps its typed
settings to (header, rows, exit code); main alone reads and types the
settings, checks that the output's directory exists, that the output is
not a directory and that the file (or, for a new one, its directory) is
writable, runs the command and writes the CSV.  Exit codes: 0 success,
2 config error (a ConfigError, or a library ValueError or
InfeasibleReferenceError) or unwritable output, 3 runtime abort (partial
trace still written).
"""

import argparse
import contextlib
import errno
import math
import os
import sys
from dataclasses import fields
from typing import Dict, Sequence

import numpy as np

from . import _kernels as k
from .charger import (ScenarioAbort, ScenarioConfig, TRACE_COLUMNS, Trace,
                      default_tank, run_scenario)
from .errors import InfeasibleReferenceError
from .inversion import ControlReferences, try_invert_alignment
from .model import TankConfig
from .power import gain_term_h, s_add_zero_boundary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3


class ConfigError(Exception):
    pass


CSV_BLOCK = 512  # rows formatted and written per write call


def write_csv(path: str | None, header: Sequence[str],
              rows: Sequence[Sequence] | np.ndarray) -> None:
    """Write rows as CSV under a header line, each value as %.17g;
    path None or "-" writes to standard output.

    rows is any sequence with len() and row slices (a list of tuples,
    an ndarray, the rows of a charge trace); it is converted to float64
    one block of CSV_BLOCK rows at a time, so no table of all rows is
    built here.  The bytes are np.savetxt(fmt="%.17g", delimiter=",",
    comments="")'s, but each block formats each distinct value once.
    %.17g depends only on a float's bits, and keying on the bits keeps
    -0.0 apart from 0.0 and NaN payloads apart.
    """
    with (contextlib.nullcontext(sys.stdout) if path is None or path == "-"
          else open(path, "w")) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_BLOCK):
            block = np.asarray(rows[start:start + CSV_BLOCK],
                               dtype=np.float64)
            bits, inverse = np.unique(block.view(np.int64),
                                      return_inverse=True)
            distinct = np.array(["%.17g" % v for v in
                                 bits.view(np.float64).tolist()], dtype=object)
            cells = distinct[inverse.reshape(block.shape)].tolist()
            fh.write("\n".join(map(",".join, cells)) + "\n")


def _collect(args) -> Dict[str, str]:
    """The config file's key = value lines (comments stripped, blank
    lines skipped), then the --set items; a later key overrides."""
    items = []
    if args.config:
        try:
            with open(args.config) as fh:
                items = [(f"{args.config}:{lineno}", line)
                         for lineno, raw in enumerate(fh, 1)
                         if (line := raw.split("#", 1)[0].strip())]
        except OSError as exc:
            raise ConfigError(
                f"cannot read config {args.config}: {exc}") from exc
    items += [("--set", item) for item in args.set or []]
    values: Dict[str, str] = {}
    for where, item in items:
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"{where}: expected key=value, got {item!r}")
        values[key.strip()] = value.strip()
    return values


def _typed(values: Dict[str, str],
           defaults: Dict[str, object]) -> Dict[str, object]:
    """defaults with each given key parsed to the type of its default;
    a tuple default takes a comma-separated list of floats."""
    unknown = set(values) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    typed = dict(defaults)
    for key, raw in values.items():
        if isinstance(defaults[key], tuple):
            typed[key] = tuple(_parse(key, x, float) for x in raw.split(",")
                               if x.strip())
        else:
            typed[key] = _parse(key, raw, type(defaults[key]))
    return typed


def _parse(key: str, raw: str, kind: type):
    """raw as a finite int or float; NaN, infinities and integers beyond
    the float range are rejected."""
    try:
        value = kind(raw)
        finite = math.isfinite(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r}") from exc
    except OverflowError as exc:  # isfinite of an integer past the range
        raise ConfigError(f"{key}: {raw!r} is out of range") from exc
    if not finite:
        raise ConfigError(f"{key}: {raw!r} is not finite")
    return value


MAP_DEFAULTS: Dict[str, object] = {
    "gain": 0.5, "s_add": 0.0,
    "sigma_start": -0.6, "sigma_stop": 0.6, "sigma_steps": 25,
    "delta_start": -0.6, "delta_stop": 0.6, "delta_steps": 25,
}


def cmd_map(cfg: Dict[str, object]):
    gain, s_add = cfg["gain"], cfg["s_add"]
    if cfg["sigma_steps"] < 1 or cfg["delta_steps"] < 1:
        raise ConfigError("grid steps must be >= 1")
    sigmas = np.linspace(cfg["sigma_start"], cfg["sigma_stop"],
                         cfg["sigma_steps"]).tolist()
    deltas = np.linspace(cfg["delta_start"], cfg["delta_stop"],
                         cfg["delta_steps"]).tolist()

    rows = []
    for sigma_ref in sigmas:
        for delta_ref in deltas:
            inv = try_invert_alignment(
                ControlReferences(sigma_ref, delta_ref, s_add), gain)
            d, s, beta, _omega = inv.params
            if not inv.feasible:
                d = s = math.nan
            rows.append((sigma_ref, delta_ref, d, s, beta, int(inv.feasible)))
    header = ("sigma_ref", "delta_ref", "d", "s", "beta", "feasible")
    return header, rows, EXIT_OK


TRAJECTORY_DEFAULTS: Dict[str, object] = {
    "duration": 2.0, "dt": 1e-3,
    "gain_start": 0.0, "gain_stop": 2.0,
    "sigma_offset": 0.0, "sigma_amp": 0.3, "sigma_freq": 1.5,
    "delta_offset": 0.0, "delta_amp": 0.2, "delta_freq": 2.5,
    "s_add_offset": 0.0, "s_add_amp": 0.5, "s_add_freq": 1.0,
}


def cmd_trajectory(cfg: Dict[str, object]):
    duration, dt = cfg["duration"], cfg["dt"]
    if duration <= 0 or dt <= 0:
        raise ConfigError("duration and dt must be positive")
    g0, g1 = cfg["gain_start"], cfg["gain_stop"]
    if g0 < 0 or g1 < 0:
        raise ConfigError("gains must be non-negative")
    off_s, amp_s, f_s = (cfg["sigma_offset"], cfg["sigma_amp"],
                         cfg["sigma_freq"])
    off_d, amp_d, f_d = (cfg["delta_offset"], cfg["delta_amp"],
                         cfg["delta_freq"])
    off_a, amp_a, f_a = (cfg["s_add_offset"], cfg["s_add_amp"],
                         cfg["s_add_freq"])

    n = int(round(duration / dt)) + 1
    rows = []
    for i in range(n):
        t = i * dt
        gain = g0 + (g1 - g0) * t / duration
        sigma_ref = off_s + amp_s * math.sin(2 * math.pi * f_s * t)
        delta_ref = off_d + amp_d * math.sin(2 * math.pi * f_d * t)
        s_add = off_a + amp_a * 0.5 * (1.0 - math.cos(2 * math.pi * f_a * t))
        try:
            ControlReferences(sigma_ref, delta_ref, s_add)
        except ValueError as exc:
            raise ConfigError(f"t={t}: {exc}") from exc
        d, s, beta, _smin, _boost, ok = k.invert_exact(
            sigma_ref, delta_ref, s_add, gain)
        if ok:
            _amp, sigma, delta, degen = k.forward_point(d, s, beta, gain)
            if degen:
                ok = False
        if not ok:
            sigma = delta = math.nan
        rows.append((t, gain, sigma_ref, delta_ref, s_add, sigma, delta,
                     d if ok else math.nan, s if ok else math.nan,
                     beta if ok else math.nan, int(ok)))
    return ("t", "G", "sigma_ref", "delta_ref", "s_add", "sigma", "delta",
            "d", "s", "beta", "feasible"), rows, EXIT_OK


LOWPOWER_DEFAULTS: Dict[str, object] = {
    "gains": (0.7, 1.0, 1.3),
    "sigma_ref": 0.1, "delta_ref": 0.0,
    "s_add_step": math.pi / 256,
}


def cmd_lowpower(cfg: Dict[str, object]):
    gains, step = cfg["gains"], cfg["s_add_step"]
    if not gains:
        raise ConfigError("gains must be a non-empty list")
    if step <= 0:
        raise ConfigError("s_add_step must be positive")
    sigma_ref, delta_ref = cfg["sigma_ref"], cfg["delta_ref"]
    refs = ControlReferences(sigma_ref=sigma_ref, delta_ref=delta_ref)
    h0s = [gain_term_h(refs, gain) for gain in gains]

    n = int(math.ceil(math.pi / step))
    rows = []
    for gain, h0 in zip(gains, h0s):
        if h0 <= 0:
            raise ConfigError(f"references infeasible at G={gain}")
        s_add0 = s_add_zero_boundary(refs, gain)
        for i in range(n + 1):
            s_add = min(i * step, math.pi)
            _d, _s, _b, h, ok, _boost = k.regulated_point(
                sigma_ref, delta_ref, s_add, gain, 0.0, 0.0)
            rows.append((gain, s_add, h / h0 if ok else math.nan, s_add0))
    return ("G", "s_add", "W_over_W0", "s_add_0"), rows, EXIT_OK


_TANK = default_tank()
# the tank's four keys, every other ScenarioConfig field, then decimate
CHARGE_DEFAULTS: Dict[str, object] = {
    "L": _TANK.inductance, "C": _TANK.capacitance, "n": _TANK.turns_ratio,
    "f_max": _TANK.omega_max / (2 * math.pi),
    **{f.name: f.default for f in fields(ScenarioConfig) if f.name != "tank"},
    "decimate": 1,
}


class TraceRows:
    """trace.column_stack()[::decimate] as a sequence whose slices are
    built from the trace on demand, so the whole table never exists."""

    def __init__(self, trace: Trace, decimate: int):
        self.trace, self.decimate = trace, decimate

    def __len__(self) -> int:
        return len(range(0, self.trace.steps, self.decimate))

    def __getitem__(self, rows: slice) -> np.ndarray:
        # with a positive step, indices() gives bounds in [0, len(self)]
        start, stop, step = rows.indices(len(self))
        if step < 0:
            raise ValueError("TraceRows takes slices with a positive step")
        d = self.decimate
        return self.trace.column_stack(slice(start * d, stop * d, step * d))


def cmd_charge(cfg: Dict[str, object]):
    decimate = cfg.pop("decimate")
    if decimate < 1:
        raise ConfigError("decimate must be >= 1")
    tank = TankConfig(inductance=cfg.pop("L"), capacitance=cfg.pop("C"),
                      turns_ratio=cfg.pop("n"),
                      omega_max=2 * math.pi * cfg.pop("f_max"))
    scenario = ScenarioConfig(tank=tank, **cfg)

    try:
        trace, code = run_scenario(scenario), EXIT_OK
    except ScenarioAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        trace, code = exc.trace, EXIT_ABORT
    return TRACE_COLUMNS, TraceRows(trace, decimate), code


# name -> (command, defaults, help): the one table of subcommands; a
# command maps its typed settings to (header, rows, exit code)
COMMANDS = {
    "map": (cmd_map, MAP_DEFAULTS,
            "feedforward (d, s) grid over reference angles"),
    "trajectory": (cmd_trajectory, TRAJECTORY_DEFAULTS,
                   "open-loop reference sweep"),
    "lowpower": (cmd_lowpower, LOWPOWER_DEFAULTS,
                 "fixed-frequency dimming curves W/W0(s_add)"),
    "charge": (cmd_charge, CHARGE_DEFAULTS,
               "closed-loop CC/CV charger scenario"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbsrc",
        description="Dual-bridge series resonant converter tool: "
                    "feedforward maps, trajectory sweeps, dimming curves "
                    "and the charger scenario, as CSV.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_command, _defaults, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output CSV path (default stdout)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config value")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, defaults, _help = COMMANDS[args.command]
    try:
        settings = _typed(_collect(args), defaults)
        if args.out not in (None, "-"):
            # a directory that is missing or a file, an output that is a
            # directory, or one that open(path, "w") could not write, fails
            # now, not after the run
            out_dir = os.path.dirname(args.out) or "."
            os.stat(os.path.join(out_dir, ""))  # the trailing / needs a dir
            if os.path.isdir(args.out):
                raise IsADirectoryError(errno.EISDIR,
                                        os.strerror(errno.EISDIR))
            if not (os.access(args.out, os.W_OK) if os.path.exists(args.out)
                    else os.access(out_dir, os.W_OK | os.X_OK)):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        header, rows, code = command(settings)
        write_csv(args.out, header, rows)
        return code
    except (ConfigError, ValueError, InfeasibleReferenceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # from the output: config reads raise ConfigError
        print(f"error: cannot write {args.out or 'standard output'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
