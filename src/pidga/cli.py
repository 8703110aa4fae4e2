"""Command-line harness: sweep, tune, baseline, validate.

Exit codes: 0 success, 2 invalid configuration, 3 sweep finished but left
invalid rows (a best response that diverged or ends at y <= 0).
"""

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from .delay import delayed_step_sim, dfr_delay, true_margin
from .experiment import (DEFAULT_DELAYS, ExperimentConfig, emit_csv, fmt6,
                         loop_margin, report_gains, run_sweep, simulate_gains)
from .lti import (UNITY, TransferFunction, closed_loop, open_loop, pid_tf,
                  step_response)
from .metrics import OBJECTIVES, stability_margin
from .plots import emit_plots
from .tuners import PlantFolpd, ziegler_nichols


class ConfigError(Exception):
    pass


def _float_list(text):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _str_list(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


_PARSERS = {tuple[float, ...]: _float_list, tuple[str, ...]: _str_list}

# config-file key -> ExperimentConfig field; the plant has keys of its own
_FIELDS = {("seed" if f.name == "master_seed" else f.name): f
           for f in fields(ExperimentConfig) if f.name != "plant"}
_PLANT_FIELDS = [f for f in fields(PlantFolpd) if f.name != "delay"]

CONFIG_KEYS = {
    **{f.name: f.type for f in _PLANT_FIELDS},
    **{key: _PARSERS.get(f.type, f.type) for key, f in _FIELDS.items()},
    "out": str,
}


def read_config_file(path):
    """Parse the plain `key = value` config format ('#' starts a comment)."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad {key} value: {exc}")
    return values


def build_config(args, **overrides):
    """Defaults <- config file <- command-line flags, then the command's
    ExperimentConfig field overrides; returns (config, out)."""
    vals = read_config_file(args.config) if args.config else {}
    for key in ("seed", "pop_size", "generations"):
        if getattr(args, key, None) is not None:
            vals[key] = getattr(args, key)
    out = getattr(args, "out", None) or vals.get("out") or "out"
    try:
        plant = replace(ExperimentConfig.plant,
                        **{f.name: vals[f.name] for f in _PLANT_FIELDS
                           if f.name in vals})
        config = ExperimentConfig(
            plant=plant, **{f.name: vals[key] for key, f in _FIELDS.items()
                            if key in vals})
        config = replace(config, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, out


def _print_row(row):
    print(f"  {row.method:8s} kd={fmt6(row.gains.kd)} kp={fmt6(row.gains.kp)} "
          f"ki={fmt6(row.gains.ki)}")
    print("    indices:  " + "  ".join(
        f"{o}={fmt6(row.indices.by_name(o))}" for o in OBJECTIVES))
    m = row.measures
    print(f"    measures: po={fmt6(m.percent_overshoot)}% "
          f"st={fmt6(m.settling_time)}s rt={fmt6(m.rise_time)}s "
          f"pt={fmt6(m.peak_time)}s sse={fmt6(m.steady_state_error)} "
          f"sm={fmt6(m.stability_margin)}")


def cmd_sweep(args):
    config, out = build_config(args)
    report = run_sweep(config, progress=print)
    paths = emit_csv(report, out)
    if len(config.delays) >= 2:
        paths += emit_plots(report, out)
    else:
        print("skipping charts (need at least two delays)")
    for p in paths:
        print(f"wrote {p}")
    if report.n_retried:
        print(f"{report.n_retried} case(s) used the alternate seed")
    if report.n_invalid:
        print(f"error: {report.n_invalid} invalid row(s)", file=sys.stderr)
        return 3
    return 0


def cmd_tune(args):
    config, _ = build_config(args, delays=(args.delay,),
                             objectives=(args.objective,))
    report = run_sweep(config)
    print(f"delay {args.delay:g}, objective {args.objective}:")
    for row in report.rows:
        _print_row(row)
    if report.n_invalid:
        return 3
    return 0


def cmd_baseline(args):
    config, _ = build_config(args)
    for tau in config.delays:
        plant = replace(config.plant, delay=tau)
        gains = ziegler_nichols(plant)
        idx, meas, _ = report_gains(gains, plant, tau, config.dt,
                                    config.horizon)
        print(f"delay {tau:g}: kd={fmt6(gains.kd)} kp={fmt6(gains.kp)} "
              f"ki={fmt6(gains.ki)}  ise={fmt6(idx.ise)} "
              f"po={fmt6(meas.percent_overshoot)}% "
              f"sm={fmt6(meas.stability_margin)}")
    return 0


def cmd_validate(args):
    """Cross-check the simulators and stability oracles against closed forms
    and against each other; prints one PASS/FAIL line per check."""
    checks = []
    lag = TransferFunction([1.0], [1.0, 1.0])

    resp = step_response(lag)
    err = np.abs(resp.y - (1.0 - np.exp(-resp.t))).max()
    checks.append(("step response of 1/(s+1) vs analytic", err <= 1e-6,
                   f"max err {err:.2e} <= 1e-06"))

    resp = step_response(closed_loop(UNITY, lag))  # = 1/(s+2)
    err = np.abs(resp.y - 0.5 * (1.0 - np.exp(-2.0 * resp.t))).max()
    checks.append(("closed-loop 1/(s+2) vs analytic", err <= 1e-6,
                   f"max err {err:.2e} <= 1e-06"))

    w = np.logspace(-2, 2, 50)
    worst_mag = 0.0
    worst_phase = 0.0
    for tau in (0.01, 0.1, 1.0):
        h = dfr_delay(tau).tf(1j * w)
        worst_mag = max(worst_mag, np.abs(np.abs(h) - 1.0).max())
        in_band = w * tau <= 1.0
        if in_band.any():
            ph = np.angle(h[in_band]) + w[in_band] * tau
            worst_phase = max(worst_phase, np.abs(ph).max())
    checks.append(("delay model is all-pass", worst_mag <= 1e-12,
                   f"max | |H|-1 | = {worst_mag:.2e} <= 1e-12"))
    checks.append(("delay model phase for w*tau <= 1", worst_phase <= 0.01,
                   f"max phase err {worst_phase:.4f} rad <= 0.01"))

    margin = stability_margin(TransferFunction([1.0], [1.0, 3.0, 2.0, 0.0]),
                              UNITY)
    checks.append(("ultimate gain of 1/(s(s+1)(s+2))",
                   abs(margin - 6.0) <= 1e-3, f"K_c = {margin:.4f} = 6±0.001"))

    plant = PlantFolpd(1.0, 1.0, 0.1)
    gains = ziegler_nichols(plant)
    exact = delayed_step_sim(open_loop(pid_tf(gains), plant.lag_tf()), 0.1)
    approx = simulate_gains(gains, plant, 0.1)
    diff = np.abs(exact.y - approx.y)
    linf = diff.max()
    tail = diff[exact.t >= 1.0].max()
    # Recorded dual-run envelope: the rational model is biproper, so its
    # response jumps to kd/(1+kd) = 0.375 at t = 0 while the exact loop is
    # still inside its dead time; after the transient the two agree closely.
    checks.append(("exact vs rational delay, full window", linf <= 0.38,
                   f"Linf {linf:.4f} <= 0.38 (feedthrough gap 0.375)"))
    checks.append(("exact vs rational delay, t >= 1 s", tail <= 0.01,
                   f"Linf {tail:.4f} <= 0.01"))

    gaps = []
    for tau in DEFAULT_DELAYS:
        plant = PlantFolpd(1.0, 1.0, tau)
        gains = ziegler_nichols(plant)
        routh = loop_margin(gains, plant, tau)
        exact = true_margin(open_loop(pid_tf(gains), plant.lag_tf()), tau)
        gaps.append((abs(routh - exact) / exact, tau, routh, exact))
    rel, tau, routh, exact = max(gaps)
    checks.append(("stability margin dual oracle", rel <= 0.10,
                   f"worst of {len(DEFAULT_DELAYS)} delays at tau={tau:g}: "
                   f"routh {routh:.4f} vs true delay {exact:.4f} "
                   f"({100 * rel:.2f}% apart, tol 10%)"))

    ok = True
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pidga",
        description="GA-based PID tuning for first-order-lag-plus-delay "
                    "plants, with a Ziegler-Nichols baseline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--out", help="output directory (default ./out)")
        p.add_argument("--pop-size", type=int, dest="pop_size")
        p.add_argument("--generations", type=int)

    p = sub.add_parser("sweep", help="full delay x objective experiment")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tune", help="single delay and objective")
    add_common(p)
    p.add_argument("--delay", type=float, required=True)
    p.add_argument("--objective", required=True, choices=OBJECTIVES)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("baseline", help="Ziegler-Nichols rows only")
    add_common(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("validate", help="oracle cross-checks")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
