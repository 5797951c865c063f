"""Command-line interface: reproducible scans and optimizations.

Subcommands: fisher-scan, optimize, scaling, dynamic-range, noise-scan,
coherent-compare.  Grids go to CSV (meta as leading ``#`` comment
lines), structured results to JSON; identical configurations produce
byte-identical files.  A JSON config file can preset any flag; explicit
flags override it, and one the subcommand never reads is refused.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import sys
from dataclasses import Field, dataclass, field, fields
from importlib import resources
from typing import Optional

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    NumericError,
    ResourceError,
    UndefinedBoundError,
)
from .ladder import InteractionKind, validate_config
from .metrology import (
    BinaryFock,
    FullPNR,
    SequentialS0,
    check_positive_finite,
    cramer_rao,
    dynamic_range,
    dynamic_range_formula,
    scan,
)
from .optimize import asymptotic_prediction, optimize_config, scaling_table
from .probes import CoherentProduct, NoisyFock, PureFock

NON_FINITE = "the results contain non-finite values"


def _entries(value: list, json_type, name: str) -> list:
    """The entries of a config-file list, each of ``json_type`` and no bool."""
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, json_type):
            raise ConfigurationError(
                f"config value for {name!r} has an entry of the wrong type: {entry!r}")
    return value


def _floats(values, name: str) -> list[float]:
    """Config-file numbers as floats; an integer too large for a float is a
    usage error."""
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise ConfigurationError(
            f"config value for {name!r} is too large for a float") from exc


def _occupations(value) -> tuple[int, ...]:
    """``--state`` as "2,1,1" or a JSON list of integers."""
    if isinstance(value, list):
        return tuple(_entries(value, int, "state"))
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse occupations from {value!r}") from exc


def _eps(value) -> tuple[float, ...]:
    """``--eps`` as "0.05,0.1" or a JSON list of numbers."""
    if isinstance(value, list):
        return tuple(_floats(_entries(value, (int, float), "eps"), "eps"))
    try:
        return tuple(float(part) for part in value.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse eps from {value!r}") from exc


def _amplitudes(value) -> tuple[complex, ...]:
    """``--alpha`` as "1.2+0.5i,..." or a JSON list of [re, im] pairs."""
    if isinstance(value, list):
        pairs = _entries(value, list, "alpha")
        if any(len(pair) != 2 for pair in pairs):
            raise ConfigurationError(f"alpha entries must be [re, im] pairs, got {value!r}")
        return tuple(
            complex(*_floats(_entries(pair, (int, float), "alpha"), "alpha"))
            for pair in pairs
        )
    out = []
    for part in value.split(","):
        text = part.strip()
        try:
            # a trailing i is the imaginary unit; the i of inf is not
            out.append(complex(text[:-1] + "j" if text.endswith("i") else text))
        except ValueError as exc:
            raise ConfigurationError(f"cannot parse amplitude {part!r}") from exc
    return tuple(out)


def _flag(default, type=str, choices=None, help=None, parse=None):
    """A RunConfig field that is also the flag ``--<name>`` and a config key.

    ``type`` converts the flag's text; a config-file value must have the
    matching JSON type (any number for float).  A list-valued flag is
    text on the command line or a JSON list in a config file, and
    ``parse`` normalises either form, checking the JSON type of each
    list entry.  A config value may be null only where the default is.
    """
    return field(default=default, metadata={
        "type": type, "choices": choices, "help": help, "parse": parse,
    })


@dataclass
class RunConfig:
    subcommand: str
    interaction: str = _flag("I", choices=("I", "II"))
    state: Optional[tuple[int, ...]] = _flag(
        None, help="occupations, e.g. 2,1,1", parse=_occupations)
    eps: Optional[tuple[float, ...]] = _flag(
        None, help="per-mode eps or one broadcast value", parse=_eps)
    alpha: Optional[tuple[complex, ...]] = _flag(
        None, help="coherent amplitudes re+imi, comma separated", parse=_amplitudes)
    scheme: str = _flag("pnr", choices=("pnr", "binary", "s0"))
    time: float = _flag(1.0, type=float)
    theta_max: float = _flag(1.0, type=float)
    steps: int = _flag(401, type=int)
    total: Optional[int] = _flag(None, type=int)
    n_max: int = _flag(30, type=int)
    trials: int = _flag(1, type=int)
    out: Optional[str] = _flag(None)
    format: str = _flag("csv", choices=("csv", "json"))


FLAGS = {flag.name: flag for flag in fields(RunConfig)[1:]}
# the option string of each flag, and the flag's name
OPTIONS = {"--" + name.replace("_", "-"): name for name in FLAGS}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every later call.

    argparse reads ``COLUMNS`` and the output streams when it formats and
    prints, not here, so sharing the tree leaves help wrapping, usage
    errors and redirection as they would be with a fresh parser.
    """
    flags = argparse.ArgumentParser(add_help=False)
    for option, name in OPTIONS.items():
        meta = FLAGS[name].metadata
        flags.add_argument(
            option, default=None, help=meta["help"], choices=meta["choices"], type=meta["type"],
        )
    flags.add_argument("--config", default=None, help="JSON file presetting any flag")
    parser = argparse.ArgumentParser(
        prog="tsense",
        description="Fisher-information analysis of trilinear coupling sensing",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        subs.add_parser(name, parents=[flags])
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--flag -1,1`` as ``--flag=-1,1``: argparse would take a value that
    starts with "-" and a digit or "." for an option, so it would never
    reach the package's own parsing and checks.  ``--flag`` may be
    abbreviated, as argparse allows."""
    out: list[str] = []
    for arg in argv:
        negative = len(arg) > 1 and arg[0] == "-" and arg[1] in "0123456789."
        flag = out[-1] if out else ""
        if negative and len(flag) > 2 and any(option.startswith(flag) for option in OPTIONS):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def parse_config(argv: list[str]) -> RunConfig:
    """Merge defaults, an optional config file, and explicit flags."""
    ns = _build_parser().parse_args(_attach_negative_values(argv))
    # a config file may preset any flag, but typing one the subcommand never reads is a mistake
    reads = ("interaction", "time", "out", "format", *COMMANDS[ns.subcommand][1].split())
    unread = [option for option, key in OPTIONS.items()
              if getattr(ns, key) is not None and key not in reads]
    if unread:
        raise ConfigurationError(f"{ns.subcommand} does not read {', '.join(unread)}")
    merged = {name: flag.default for name, flag in FLAGS.items()}
    if ns.subcommand == "optimize":
        merged["format"] = "json"
    if ns.config is not None:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except ValueError as exc:  # not JSON, not UTF-8, or an integer of too many digits
            raise ConfigurationError(f"invalid config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError("a config file must hold one JSON object")
        loaded.pop("subcommand", None)
        unknown = set(loaded) - set(FLAGS)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_config_value(FLAGS[key], value)
        merged.update(loaded)
    for key in merged:
        value = getattr(ns, key)
        if value is not None:
            merged[key] = value
    for key, flag in FLAGS.items():
        parse = flag.metadata["parse"]
        if parse is not None and merged[key] is not None:
            merged[key] = parse(merged[key])
    check_positive_finite(time=merged["time"], theta_max=merged["theta_max"])
    if merged["alpha"] is not None and not all(map(cmath.isfinite, merged["alpha"])):
        raise ConfigurationError(f"alpha must be finite, got {merged['alpha']}")
    return RunConfig(subcommand=ns.subcommand, **merged)


def _check_config_value(flag: Field, value) -> None:
    meta = flag.metadata
    if value is None and flag.default is None:
        return
    if meta["parse"] is not None:
        json_type = (str, list)
    else:
        json_type = (int, float) if meta["type"] is float else meta["type"]
    if isinstance(value, bool) or not isinstance(value, json_type):
        raise ConfigurationError(
            f"config value for {flag.name!r} has the wrong type: {value!r}")
    if meta["type"] is float:
        _floats([value], flag.name)
    if meta["choices"] is not None and value not in meta["choices"]:
        raise ConfigurationError(
            f"config value for {flag.name!r} must be one of "
            f"{', '.join(meta['choices'])}, got {value!r}"
        )


def _kind(cfg: RunConfig) -> InteractionKind:
    return InteractionKind(cfg.interaction)


def _broadcast_eps(eps: tuple[float, ...], n_modes: int) -> tuple[float, ...]:
    if len(eps) == 1:
        return eps * n_modes
    if len(eps) != n_modes:
        raise ConfigurationError(f"need 1 or {n_modes} eps values, got {len(eps)}")
    return eps


def _state(cfg: RunConfig) -> tuple[int, ...]:
    """``--state``, refused unless it has one occupation per mode."""
    if cfg.state is None:
        raise ConfigurationError("--state is required (occupations, e.g. 2,1,1)")
    validate_config(_kind(cfg), cfg.state, "occupations")
    return cfg.state


def _build_probe(cfg: RunConfig):
    if cfg.alpha is not None:
        if cfg.state is not None or cfg.eps is not None:
            raise ConfigurationError("--alpha cannot be combined with --state/--eps here")
        return CoherentProduct(alphas=cfg.alpha)
    state = _state(cfg)
    if cfg.eps is not None:
        return NoisyFock(nominal=state, eps=_broadcast_eps(cfg.eps, _kind(cfg).n_modes))
    return PureFock(occupations=state)


def _state_text(occupations) -> str:
    """Occupations as the text ``--state`` takes, e.g. "2,1,1"."""
    return ",".join(str(n) for n in occupations)


def _probe_label(probe) -> str:
    if isinstance(probe, PureFock):
        return f"fock({_state_text(probe.occupations)})"
    if isinstance(probe, NoisyFock):
        eps = ",".join(repr(e) for e in probe.eps)
        return f"noisy({_state_text(probe.nominal)}; eps={eps})"
    # the sign of the imaginary part, -0.0 included, so that --alpha reads it back
    amps = ",".join(
        f"{a.real!r}{'+' if math.copysign(1.0, a.imag) > 0 else '-'}{abs(a.imag)!r}i"
        for a in probe.alphas
    )
    return f"coherent({amps})"


def _meta(cfg: RunConfig, **extra) -> dict:
    return {"subcommand": cfg.subcommand, "version": __version__,
            "interaction": cfg.interaction, **extra}


def _scan_probes(cfg: RunConfig, *probes) -> tuple[list, dict]:
    """Fisher grids of ``probes``, scanned in the order given under the
    configured scheme and coupling grid, and the meta that describes them."""
    if cfg.scheme == "pnr":
        scheme, label = FullPNR(), "pnr"
    else:
        # the target is the first mode's occupation, or its rounded coherent mean
        coherent = cfg.state is None and cfg.alpha is not None
        n = round(abs(cfg.alpha[0]) ** 2) if coherent else _state(cfg)[0]
        scheme = BinaryFock(n=n) if cfg.scheme == "binary" else SequentialS0(n=n)
        label = f"{cfg.scheme}(n={scheme.n})"
    profiles = [
        scan(probe, _kind(cfg), scheme, t=cfg.time, theta_max=cfg.theta_max, steps=cfg.steps)
        for probe in probes
    ]
    grid = {"scheme": label, "time": cfg.time, "theta_max": cfg.theta_max, "steps": cfg.steps}
    return profiles, grid


def cmd_fisher_scan(cfg: RunConfig) -> dict:
    # cramer_rao checks trials too, but only runs when F(0) is positive and
    # finite; an infinite F(0) is refused below as a non-finite result
    if cfg.trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {cfg.trials}")
    probe = _build_probe(cfg)
    (profile,), grid = _scan_probes(cfg, probe)
    cr = cramer_rao(profile.f_zero, cfg.trials) if 0.0 < profile.f_zero < math.inf else None
    meta = _meta(
        cfg,
        probe=_probe_label(probe),
        **grid,
        trials=cfg.trials,
        f_zero=float(profile.f_zero),
        qfi_zero=None if profile.qfi_zero is None else float(profile.qfi_zero),
        cramer_rao_zero=cr,
    )
    rows = np.column_stack([profile.couplings, profile.fisher]).tolist()
    return {"meta": meta, "columns": ["coupling", "fisher"], "rows": rows}


def cmd_optimize(cfg: RunConfig) -> dict:
    if cfg.format != "json":
        raise ConfigurationError("optimize writes structured JSON; use --format json")
    if cfg.total is None:
        raise ConfigurationError("--total is required for optimize")
    res = optimize_config(_kind(cfg), cfg.total, t=cfg.time)
    return {
        "meta": _meta(cfg, time=cfg.time),
        "n": res.n,
        "kind": res.kind.value,
        "maximizers": [list(m.occupations) for m in res.maximizers],
        "f0": float(res.f0),
        "relaxation": None if res.relaxation is None else [float(v) for v in res.relaxation],
        "asymptote": float(res.asymptote),
    }


def cmd_scaling(cfg: RunConfig) -> dict:
    kind = _kind(cfg)
    # scaling_table and asymptotic_prediction give floats (or None) already
    rows = [
        [*row, asymptotic_prediction(kind, row[0], cfg.time)]
        for row in scaling_table(kind, cfg.n_max, t=cfg.time)
    ]
    return {
        "meta": _meta(cfg, time=cfg.time, n_max=cfg.n_max),
        "columns": ["n", *("f0_one", "f0_two", "f0_three")[: kind.n_modes], "asymptote"],
        "rows": rows,
    }


def cmd_dynamic_range(cfg: RunConfig) -> dict:
    probe = PureFock(_state(cfg))
    (profile,), grid = _scan_probes(cfg, probe)
    # the output is a summary of the grid, so check the grid itself
    if not all(map(math.isfinite, profile.fisher)):
        raise NumericError(NON_FINITE)
    empirical = dynamic_range(profile)
    formula = dynamic_range_formula(probe, _kind(cfg), cfg.time)
    row = [
        _state_text(probe.occupations),
        None if empirical is None else float(empirical),
        None if formula is None else float(formula),
    ]
    return {
        "meta": _meta(cfg, **grid),
        "columns": ["state", "theta_min_empirical", "theta_min_formula"],
        "rows": [row],
    }


def cmd_noise_scan(cfg: RunConfig) -> dict:
    state = _state(cfg)
    if cfg.eps is None:
        raise ConfigurationError("--eps is required for noise-scan")
    eps = _broadcast_eps(cfg.eps, _kind(cfg).n_modes)
    # the noisy probe first: if it is refused, no time goes into the pure one
    probe = NoisyFock(state, eps)
    (noisy, pure), grid = _scan_probes(cfg, probe, PureFock(state))
    rows = np.column_stack([pure.couplings, pure.fisher, noisy.fisher]).tolist()
    return {
        "meta": _meta(cfg, probe=_probe_label(probe), **grid),
        "columns": ["coupling", "fisher_pure", "fisher_noisy"],
        "rows": rows,
    }


def cmd_coherent_compare(cfg: RunConfig) -> dict:
    n_modes = _kind(cfg).n_modes
    # checked before its occupations set the default amplitudes
    fock_probe = PureFock(_state(cfg))
    state = fock_probe.occupations
    alphas = cfg.alpha
    if alphas is None:
        alphas = tuple(complex(math.sqrt(n)) for n in state)
    if len(alphas) != n_modes:
        raise ConfigurationError(f"need {n_modes} coherent amplitudes, got {len(alphas)}")
    # the coherent probe scans first: if it is refused, no time goes into the Fock one
    probe = CoherentProduct(alphas)
    (coherent, fock), grid = _scan_probes(cfg, probe, fock_probe)
    meta = _meta(cfg, probe=_probe_label(probe), fock_state=_state_text(state), **grid)
    qfi = np.full_like(fock.couplings, coherent.qfi_zero)
    rows = np.column_stack([fock.couplings, fock.fisher, coherent.fisher, qfi]).tolist()
    return {
        "meta": meta,
        "columns": ["coupling", "fisher_fock", "fisher_coherent", "qfi_coherent"],
        "rows": rows,
    }


# each subcommand and the flags it reads besides interaction, time, out and format
COMMANDS = {
    "fisher-scan": (cmd_fisher_scan, "state eps alpha scheme theta_max steps trials"),
    "optimize": (cmd_optimize, "total"),
    "scaling": (cmd_scaling, "n_max"),
    "dynamic-range": (cmd_dynamic_range, "state scheme theta_max steps"),
    "noise-scan": (cmd_noise_scan, "state eps scheme theta_max steps"),
    "coherent-compare": (cmd_coherent_compare, "state alpha scheme theta_max steps"),
}


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render(doc: dict, fmt: str) -> str:
    if fmt != "csv":
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    buf = io.StringIO()
    for key, value in doc["meta"].items():
        buf.write(f"# {key}: {_fmt_cell(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(doc["columns"])
    for row in doc["rows"]:
        writer.writerow([_fmt_cell(v) for v in row])
    return buf.getvalue()


def output_schema() -> dict:
    """The shipped JSON schema all JSON outputs validate against."""
    path = resources.files("tsense").joinpath("schemas/output.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def _non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(map(_non_finite, value.values()))
    if isinstance(value, list):
        return any(map(_non_finite, value))
    return False


def run(cfg: RunConfig) -> str:
    # an overflowing evolution shows up as non-finite values, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        doc = COMMANDS[cfg.subcommand][0](cfg)
    if _non_finite(doc):
        # CSV would print nan/inf cells and JSON cannot encode them
        raise NumericError(NON_FINITE)
    return render(doc, cfg.format)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(list(argv))
        text = run(cfg)
        if cfg.out is None:
            sys.stdout.write(text)
        else:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return 0
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    except (ConfigurationError, UndefinedBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run 'tsense <subcommand> --help' for usage", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, ResourceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
