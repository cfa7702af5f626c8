"""Command-line front end: argument parsing, experiment orchestration, and
structured output.

Human-readable text always goes to standard output; machine-readable output
(JSON, or CSV for tabular commands) is written only to an explicit --out
path, opened before the command computes (`_opened`). Every command is
deterministic given its configuration: reruns produce byte-identical files.
Wall-clock runtimes appear in the text rendering only, never in machine
output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import io
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass, fields

from . import __version__
from .analysis import (
    ConvergenceRow,
    SweepPoint,
    ghz_check,
    lamb_dicke_error_sweep,
    truncation_convergence,
    truth_table_check,
)
from .hilbert import ThermalSpec, thermal_state
from .synthesis import literal_params, solve_gate_params

#: the sweep's CSV columns and JSON record keys: every field of a sweep row
#: but its runtime, which machine output never carries
SWEEP_CSV_COLUMNS = tuple(f.name for f in fields(SweepPoint) if f.name != "runtime_s")


@dataclass(frozen=True)
class RunConfig:
    """Validated sweep configuration from a JSON file.

    The file has exactly the top-level keys {model, grids, output}; unknown
    keys at any level are rejected before any computation starts. The
    defaults below apply to the model and output keys the file leaves out.
    """

    eta_grid: tuple[float, ...]
    nbar_grid: tuple[float, ...]
    n_ions: int = 2
    n_max: int = 40
    n_pad: int = 10
    hamiltonian: str = "full"
    seed: int | None = None
    csv_path: str | None = None
    json_path: str | None = None


class ConfigError(ValueError):
    pass


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


#: the smallest accepted value of each integer model setting; every sweep row
#: runs the GHZ recipe, which needs two ions
_MINIMA = {"n_ions": 2, "n_max": 1, "n_pad": 0}


#: the largest side of a square complex array (16 bytes per entry) whose size
#: in bytes numpy can index (np.intp, as wide as sys.maxsize); past it, numpy
#: raises ValueError before allocating
_MAX_SIDE = math.isqrt(sys.maxsize // 16)


#: the names in a settings error of the gate check and convergence, which run
#: at two ions, and of ghz; and the sweep's flags that override its config
_CUTOFF_FLAGS = {"n_ions": "n_ions", "n_max": "--n-max", "n_pad": "--n-pad"}


def _check_settings(
    n_ions: int | None, n_max: int, n_pad: int, flags: dict[str, str]
) -> None:
    """Reject integer model settings below `_MINIMA`, then cutoffs whose
    matrices numpy cannot index: the composite ones of side 2^N (n_max + 1),
    unless n_ions is None, and the padded sine operator of side
    n_max + n_pad + 1. Each setting is named by the flag in `flags` that set
    it, else by its config key."""
    names = {key: flags.get(key, f"model.{key}") for key in _MINIMA}
    for (key, floor), value in zip(_MINIMA.items(), (n_ions, n_max, n_pad)):
        if value is not None and value < floor:
            raise ConfigError(f"{names[key]} must be >= {floor}, got {value}")
    # the bit-length test first, so that a huge n_ions never forms 2^n_ions
    if n_ions is not None and (
        n_ions >= _MAX_SIDE.bit_length() or (n_max + 1) << n_ions > _MAX_SIDE
    ):
        raise ConfigError(
            f"{names['n_ions']}={n_ions} and {names['n_max']}={n_max} give composite "
            "matrices of side 2^n_ions (n_max + 1), past numpy's array size limit "
            f"{_MAX_SIDE}"
        )
    if n_max + n_pad + 1 > _MAX_SIDE:
        raise ConfigError(
            f"{names['n_max']}={n_max} and {names['n_pad']}={n_pad} give a padded sine "
            "operator of side n_max + n_pad + 1, past numpy's array size limit "
            f"{_MAX_SIDE}"
        )


def _check_floats(args) -> None:
    """Reject an --eta or --nbar value that the library refuses, by its flag."""
    checks = {"eta": ("> 0", lambda x: x > 0), "nbar": (">= 0", lambda x: x >= 0)}
    for key, (bound, ok) in checks.items():
        value = vars(args).get(key)
        if value is not None and not (math.isfinite(value) and ok(value)):
            raise ConfigError(f"--{key} must be finite and {bound}, got {value}")


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _grid(grids: dict, key: str) -> tuple[float, ...]:
    values = grids[key]
    if not isinstance(values, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in values
    ):
        raise ConfigError(
            f"grids.{key} must be a JSON array of numbers, got {values!r}"
        )
    try:
        return tuple(float(x) for x in values)
    except OverflowError:
        # a JSON integer past the float range
        raise ConfigError(f"grids.{key} holds an integer too large for a float") from None


def load_run_config(
    path: str, n_max: int | None = None, n_pad: int | None = None, seed: int | None = None
) -> RunConfig:
    """Parse and validate a sweep config file, then replace its n_max, n_pad
    and seed by each of these arguments, the sweep's flags, that is not None.
    The file's values are type-checked as read; the effective settings are
    range-checked once, after the replacement, and an error names a replaced
    setting by its flag (`--n-max`, `--n-pad`)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(raw, {"model", "grids", "output"}, "top-level")
    model = raw.get("model", {})
    grids = raw.get("grids", {})
    output = raw.get("output", {})
    for name, section in (("model", model), ("grids", grids), ("output", output)):
        if not isinstance(section, dict):
            raise ConfigError(f"{name} section must be a JSON object")
    _require_keys(model, {"n_ions", "n_max", "n_pad", "hamiltonian", "seed"}, "model")
    _require_keys(grids, {"eta", "nbar"}, "grids")
    _require_keys(output, {"csv", "json"}, "output")
    if "eta" not in grids or "nbar" not in grids:
        raise ConfigError("grids must provide both 'eta' and 'nbar' lists")
    eta_grid = _grid(grids, "eta")
    nbar_grid = _grid(grids, "nbar")
    if not eta_grid or not nbar_grid:
        raise ConfigError("grids must be nonempty")
    # json.load accepts NaN and Infinity, so check finiteness explicitly
    if not all(math.isfinite(x) and x > 0 for x in eta_grid):
        raise ConfigError("eta grid values must be finite and > 0")
    if not all(math.isfinite(x) and x >= 0 for x in nbar_grid):
        raise ConfigError("nbar grid values must be finite and >= 0")
    for key in _MINIMA:
        if key in model and not _is_int(model[key]):
            raise ConfigError(f"model.{key} must be an integer, got {model[key]!r}")
    if model.get("seed") is not None and not _is_int(model["seed"]):
        raise ConfigError(f"model.seed must be an integer or null, got {model['seed']!r}")
    if "hamiltonian" in model and model["hamiltonian"] not in ("full", "ld"):
        raise ConfigError(
            f"hamiltonian must be 'full' or 'ld', got {model['hamiltonian']!r}"
        )
    for key, path in output.items():
        if not isinstance(path, str):
            raise ConfigError(f"output.{key} must be a path string, got {path!r}")
    given = {"n_max": n_max, "n_pad": n_pad, "seed": seed}
    overrides = {key: value for key, value in given.items() if value is not None}
    # the model keys are RunConfig field names; absent ones take its defaults
    config = RunConfig(
        eta_grid=eta_grid,
        nbar_grid=nbar_grid,
        **{**model, **overrides},
        **{f"{key}_path": path for key, path in output.items()},
    )
    flags = {key: flag for key, flag in _CUTOFF_FLAGS.items() if key in overrides}
    _check_settings(config.n_ions, config.n_max, config.n_pad, flags)
    return config


def _cell(value) -> str:
    """One CSV cell: None is empty, flags are joined by ';', integers and
    strings are written as they are, and floats to 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ";".join(value)
    if isinstance(value, (int, str)):
        return str(value)
    return format(float(value), ".17g")


def _csv_text(columns, records) -> str:
    """A header of `columns`, then one row of those attributes per record."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(getattr(rec, col)) for col in columns] for rec in records)
    return buf.getvalue()


def _json_bytes(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _settings(args) -> dict:
    """The start of a command's JSON: the command and every parsed argument
    that can change an output, which is all but where the output goes, its
    format and the lifted N guard."""
    unrecorded = {"func", "out", "format", "force"}
    return {key: value for key, value in vars(args).items() if key not in unrecorded}


@contextlib.contextmanager
def _opened(paths):
    """Every nonempty path opened for writing, all or none: when one cannot
    be opened, or the block raises, the regular files opened are removed
    again (never a device or a symbolic link)."""
    with contextlib.ExitStack() as undo:
        with contextlib.ExitStack() as files:
            handles = {}
            for path in filter(None, paths):
                handles[path] = files.enter_context(
                    open(path, "w", encoding="utf-8", newline="")
                )
                if stat.S_ISREG(os.lstat(path).st_mode):
                    undo.callback(os.remove, path)
            yield handles
        # every file is written and closed: nothing to undo
        undo.pop_all()


def _writes_out(command):
    """A command that returns its --out text, run with --out opened before
    it computes, so that a path that cannot be written fails it at once."""
    @functools.wraps(command)
    def run(args) -> int:
        with _opened([args.out]) as files:
            text = command(args)
            for fh in files.values():
                fh.write(text)
        return 0

    return run


@_writes_out
def cmd_solve(args) -> str:
    sol = solve_gate_params(args.eta)
    payload = {**_settings(args), "solution": asdict(sol)}
    print(f"gate parameters for eta = {sol.eta:g}")
    print(f"  theta        = {sol.theta:.12g} rad")
    print(f"  Omega/omega_a= {sol.omega_ratio:.12g}")
    print(f"  achieved C   = {sol.achieved_c:.12g}  (target pi/8 = {math.pi/8:.12g})")
    print(f"  achieved -D  = {-sol.achieved_d:.12g}  (target pi/4 = {math.pi/4:.12g})")
    print(f"  residuals    = ({sol.residual_c:.3e}, {sol.residual_d:.3e})")
    if args.literal_params:
        lit = literal_params(args.eta)
        payload["literal"] = asdict(lit)
        print("literal published formulas for the same target:")
        print(f"  theta        = {lit.theta:.12g} rad")
        print(f"  Omega/omega_a= {lit.omega_ratio:.12g}")
        print(f"  achieved C   = {lit.achieved_c:.12g}  (pi^2/8 = {math.pi**2/8:.12g})")
        print(f"  achieved -D  = {-lit.achieved_d:.12g}  (pi^2/4 = {math.pi**2/4:.12g})")
        print(f"  residuals    = ({lit.residual_c:.3e}, {lit.residual_d:.3e})")
        print("  (off the target by a factor of pi in both coefficients;")
        print("   reported for cross-checking, see README)")
    return _json_bytes(payload)


@_writes_out
def cmd_gate_check(args) -> str:
    _check_settings(2, args.n_max, args.n_pad, _CUTOFF_FLAGS)
    params = solve_gate_params(args.eta).model_params(
        n_ions=2, n_max=args.n_max, n_pad=args.n_pad
    )
    motion = thermal_state(ThermalSpec(nbar=args.nbar, n_max=args.n_max))
    report = truth_table_check(params, motion, model=args.model)
    payload = {**_settings(args), **asdict(report), "gate_infidelity": report.gate_infidelity}
    payload["inputs"] = payload.pop("input_labels")
    print(
        f"truth-table check: eta={args.eta:g} nbar={args.nbar:g} "
        f"n_max={args.n_max} model={report.model}"
    )
    for label, fi, fr, fc in zip(
        report.input_labels,
        report.internal_fidelities,
        report.restoration_fidelities,
        report.composite_fidelities,
    ):
        print(
            f"  |{label}>: internal {fi:.12f}  restoration {fr:.12f}  "
            f"composite {fc:.12f}"
        )
    print(f"  gate infidelity (mean composite): {report.gate_infidelity:.6e}")
    print(f"  leakage above n_max/2: {report.leakage:.6e}")
    if report.flags:
        print(f"  flags: {', '.join(report.flags)}")
    return _json_bytes(payload)


@_writes_out
def cmd_ghz(args) -> str:
    if args.n_ions < 2:
        raise ConfigError(f"--n-ions must be >= 2, got {args.n_ions}")
    if args.n_ions > 6 and not args.force:
        raise ConfigError(
            f"--n-ions={args.n_ions} outside the desk-scale guard [2, 6]; "
            "pass --force to override"
        )
    # no n_ions: ghz builds nothing of side 2^N
    _check_settings(None, args.n_max, args.n_pad, _CUTOFF_FLAGS)
    motion = thermal_state(ThermalSpec(nbar=args.nbar, n_max=args.n_max))
    report = ghz_check(args.n_ions, args.eta, motion, n_pad=args.n_pad, model=args.model)
    payload = {**_settings(args), **asdict(report), "phi_g": 0.0, "phi_e": report.rel_phase}
    recipe_kind = "even" if args.n_ions % 2 == 0 else "odd"
    print(
        f"GHZ run: N={args.n_ions} ({recipe_kind} recipe) eta={args.eta:g} "
        f"nbar={args.nbar:g} n_max={args.n_max} model={report.model}"
    )
    print(f"  fidelity (phase-maximized): {report.fidelity:.12f}")
    print(f"  relative phase phi_e - phi_g: {report.rel_phase:.9f} rad "
          f"({report.rel_phase/math.pi:+.6f} pi)")
    print("  extracted phases mod global phase: phi_g = 0, "
          f"phi_e = {report.rel_phase:.9f}")
    if report.expected_rel_phase is not None:
        print(
            "  even-N expectation from the recipe's twist exp[+i pi/8 Jx^2], "
            f"-(pi/2 + N pi/2) mod 2pi: {report.expected_rel_phase:.9f} rad; "
            f"deviation {report.phase_deviation:.6e} rad"
        )
    print(f"  leakage above n_max/2: {report.leakage:.6e}")
    if report.flags:
        print(f"  flags: {', '.join(report.flags)}")
    return _json_bytes(payload)


def _sweep_json(config: RunConfig, records) -> dict:
    import numpy

    return {
        "command": "sweep",
        "model": {
            "n_ions": config.n_ions,
            "n_max": config.n_max,
            "n_pad": config.n_pad,
            "hamiltonian": config.hamiltonian,
        },
        "grids": {"eta": list(config.eta_grid), "nbar": list(config.nbar_grid)},
        "seed": config.seed,
        "versions": {
            "iongate": __version__,
            "numpy": numpy.__version__,
        },
        "records": [{col: getattr(rec, col) for col in SWEEP_CSV_COLUMNS} for rec in records],
    }


def cmd_sweep(args) -> int:
    # the one effective configuration, the config file with the flags given:
    # the sweep, its JSON and its text read it
    config = load_run_config(args.config, n_max=args.n_max, n_pad=args.n_pad, seed=args.seed)
    # the format of each output path; a path named twice takes the last one
    formats = {config.csv_path: "csv", config.json_path: "json", args.out: args.format}
    # opened before the sweep runs, so that a path that cannot be written
    # fails the command before any row is computed
    with _opened(formats) as handles:
        records = lamb_dicke_error_sweep(
            config.eta_grid,
            config.nbar_grid,
            n_ions=config.n_ions,
            n_max=config.n_max,
            n_pad=config.n_pad,
            model=config.hamiltonian,
        )
        texts = {
            "csv": _csv_text(SWEEP_CSV_COLUMNS, records),
            "json": _json_bytes(_sweep_json(config, records)),
        }
        for path, fh in handles.items():
            fh.write(texts[formats[path]])
    print(
        f"sweep: {len(config.eta_grid)} eta x {len(config.nbar_grid)} nbar points, "
        f"n_ions={config.n_ions}, n_max={config.n_max}, model={config.hamiltonian}"
    )
    for rec in records:
        if rec.error:
            print(f"  eta={rec.eta:g} nbar={rec.nbar:g}: ERROR {rec.error}")
        else:
            flag_note = f"  [{';'.join(rec.flags)}]" if rec.flags else ""
            print(
                f"  eta={rec.eta:g} nbar={rec.nbar:g}: gate {rec.infidelity_gate:.3e}"
                f"  ghz {rec.infidelity_ghz:.3e}  leak {rec.leakage:.3e}"
                f"  ({rec.runtime_s:.2f}s){flag_note}"
            )
    for path in (config.csv_path, config.json_path):
        if path:
            print(f"wrote {path}")
    return 1 if any(rec.error for rec in records) else 0


@_writes_out
def cmd_convergence(args) -> str:
    try:
        n_list = [int(x) for x in args.n_max_list.split(",")]
    except ValueError:
        raise ConfigError(f"bad n_max list {args.n_max_list!r}") from None
    for n_max in n_list:
        _check_settings(2, n_max, args.n_pad, {**_CUTOFF_FLAGS, "n_max": "--n-max-list"})
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError(f"--n-max-list must be strictly increasing, got {n_list}")
    rows = truncation_convergence(
        solve_gate_params(args.eta), n_list, nbar=args.nbar, n_pad=args.n_pad, model=args.model
    )
    payload = {**_settings(args), "n_max_list": n_list, "rows": [asdict(row) for row in rows]}
    print(f"truncation convergence: eta={args.eta:g} nbar={args.nbar:g} model={args.model}")
    print("  n_max  gate_infidelity  independence_metric  diff_infid  diff_metric")
    for row in rows:
        di = "-" if row.diff_infidelity is None else f"{row.diff_infidelity:.3e}"
        dm = "-" if row.diff_metric is None else f"{row.diff_metric:.3e}"
        print(
            f"  {row.n_max:5d}  {row.gate_infidelity:15.6e}  {row.metric:19.6e}"
            f"  {di:>10s}  {dm:>11s}"
        )
    if args.format == "csv":
        return _csv_text([f.name for f in fields(ConvergenceRow)], rows)
    return _json_bytes(payload)


_MODEL_FLAG = dict(action="store_const", const="full", default="ld", dest="model")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="write machine output to this path")
    sub.add_argument("--seed", type=int, default=None, help="recorded in provenance")


def _add_format(sub: argparse.ArgumentParser) -> None:
    # only the tabular commands have a CSV form
    sub.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="format for --out (default json)",
    )


def _add_cutoffs(sub: argparse.ArgumentParser, n_max: int | None, n_pad: int | None) -> None:
    sub.add_argument("--n-max", type=int, default=n_max, dest="n_max")
    sub.add_argument("--n-pad", type=int, default=n_pad, dest="n_pad")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iongate",
        description="standing-wave phase gate simulator for trapped ions",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # whole flag names only, so that --n-max cannot stand for --n-max-list
    add_parser = functools.partial(subs.add_parser, allow_abbrev=False)

    p_solve = add_parser("solve", help="solve the gate parameter constraints")
    p_solve.add_argument("--eta", type=float, required=True)
    p_solve.add_argument(
        "--literal-params",
        action="store_true",
        help="also evaluate the literal published parameter formulas",
    )
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_gate = add_parser("gate-check", help="truth-table check with thermal motion")
    p_gate.add_argument("--eta", type=float, default=0.1)
    p_gate.add_argument("--nbar", type=float, default=2.0)
    p_gate.add_argument("--full-hamiltonian", **_MODEL_FLAG)
    _add_common(p_gate)
    _add_cutoffs(p_gate, 40, 10)
    p_gate.set_defaults(func=cmd_gate_check)

    p_ghz = add_parser("ghz", help="GHZ generation check")
    p_ghz.add_argument("--n-ions", type=int, default=2, dest="n_ions")
    p_ghz.add_argument("--eta", type=float, default=0.1)
    p_ghz.add_argument("--nbar", type=float, default=2.0)
    p_ghz.add_argument("--full-hamiltonian", **_MODEL_FLAG)
    p_ghz.add_argument("--force", action="store_true", help="override the N guard")
    _add_common(p_ghz)
    _add_cutoffs(p_ghz, 40, 10)
    p_ghz.set_defaults(func=cmd_ghz)

    p_sweep = add_parser("sweep", help="run a sweep from a JSON config")
    p_sweep.add_argument("--config", required=True)
    _add_common(p_sweep)
    _add_format(p_sweep)
    # None means "take the cutoffs from the config file"
    _add_cutoffs(p_sweep, None, None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_conv = add_parser("convergence", help="gate metrics vs Fock cutoff")
    p_conv.add_argument("--eta", type=float, default=0.1)
    p_conv.add_argument("--nbar", type=float, default=2.0)
    p_conv.add_argument(
        "--n-max-list",
        default="10,20,40",
        dest="n_max_list",
        help="comma-separated increasing cutoffs",
    )
    p_conv.add_argument("--full-hamiltonian", **_MODEL_FLAG)
    _add_common(p_conv)
    _add_format(p_conv)
    p_conv.add_argument("--n-pad", type=int, default=10, dest="n_pad")
    p_conv.set_defaults(func=cmd_convergence)

    return parser


def _import_numpy() -> None:
    """Import numpy for a command that computes with arrays. When this is
    the process's first import of numpy, the heap it built is frozen like the
    package's (see the end of this module): a CLI process then skips it in
    every later collection, the one at exit included. A process that already
    had numpy, such as a caller of `main` in a test, freezes nothing here."""
    if "numpy" in sys.modules:
        return
    import numpy  # noqa: F401

    gc.freeze()


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    # the closed-form solve runs on `math` alone; every other command loads
    # numpy here, before it computes, rather than on its first array
    if args.command != "solve":
        _import_numpy()
    # bad input (ConfigError is a ValueError) and an output path that cannot
    # be written exit 2, a failed computation, out of memory too, 1
    try:
        _check_floats(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


# Everything the imports built (this package's modules, types and tables, and
# numpy's, which `main` freezes when it first imports numpy) lives until the
# process exits. Moved into the permanent generation, it is no longer walked
# by any later collection, the one at interpreter exit included: with numpy's
# heap, that walk was about two thirds of a command process's 24 ms from
# `main` returning to exit (2-core x86-64 host). A library import of iongate
# freezes nothing.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
