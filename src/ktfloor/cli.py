"""Command-line interface.

Subcommands::

    floor   dissipation floors for a target error probability
    cycle   full-cycle energy audit of a follower gate
    mc      Monte Carlo first-passage error estimate vs the analytic value
    tank    LC recycling transfer efficiency and switch break-even
    sweep   one-variable parameter sweep to CSV + manifest

Exit codes: 0 success, 2 usage or domain error, 3 strict-audit failure.
All output is deterministic — no timestamps, explicit float formats — so a
rerun with the same flags and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from pathlib import Path

from . import __version__, floors
from .audit import CLAIM_NEGLECTS, FollowerGate, audit_claim, run_cycle
from .circuit import RcStage
from .csvout import write_numeric_csv
from .floors import ErrorSpec, first_passage_mc, floor_long, floor_short
from .noise import OuProcess, stationary_path
from .quantities import ROOM_TEMPERATURE, PhysicalEnvironment
from .sweep import DEFAULT_SEED, SweepConfigError, load_config, run_sweep
from .tank import (
    MAX_RK4_STEPS, WAVEFORM_COLUMNS, TankCircuit, break_even_energy, require_switch_count,
)


def _refuse_unwritable(name: str, path) -> None:
    """Refuse an output file that cannot be created, before any work starts."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        raise ValueError(f"{name}: cannot write {str(path)!r}: it is a directory")
    if not target.parent.is_dir():
        raise ValueError(
            f"{name}: cannot write {str(path)!r}: {str(target.parent)!r} is not a directory"
        )


def _report(args, payload: dict, text: tuple, **extra) -> None:
    """Print a command's payload as JSON with --json, else as its text lines.

    ``text`` holds (field, template) pairs.  Each template is formatted with
    the payload's fields plus ``extra`` (values shown only as text); a line
    whose field names a None or False value is skipped.
    """
    if args.json:
        print(json.dumps(payload, indent=2))
        return
    values = {**payload, **extra}
    for field, template in text:
        if field is None or values[field] is not None and values[field] is not False:
            print(template.format_map(values))


_FLOOR_TEXT = (
    (None, "temperature       {temperature_K:.8e} K"),
    (None, "thermal energy    {thermal_energy_J:.8e} J"),
    (None, "epsilon           {epsilon:.8e}"),
    (None, "floor (short)     {short[floor_kT]:.2f} kT = {short[floor_J]:.8e} J"),
    ("long", "floor (long)      {long[floor_kT]:.2f} kT = {long[floor_J]:.8e} J  "
     "[t_obs={long[t_obs_s]:.8e} s, tau={long[tau_s]:.8e} s]"),
)


def cmd_floor(args) -> int:
    env = PhysicalEnvironment(temperature=args.temp)
    if (args.t_obs is None) != (args.tau is None):
        raise ValueError("--t-obs and --tau must be given together")
    spec = ErrorSpec(
        epsilon=args.epsilon,
        observation_time=args.t_obs if args.t_obs is not None else 0.0,
        correlation_time=args.tau,
    )
    short = floor_short(spec, env)
    long_result = floor_long(spec, env) if args.tau is not None else None
    payload = {
        "command": "floor",
        "temperature_K": args.temp,
        "thermal_energy_J": env.thermal_energy(),
        "epsilon": args.epsilon,
        "short": {
            "floor_kT": short.floor_kt,
            "floor_J": short.floor_joule,
            "regime": short.regime,
        },
        "long": None
        if long_result is None
        else {
            "floor_kT": long_result.floor_kt,
            "floor_J": long_result.floor_joule,
            "regime": long_result.regime,
            "t_obs_s": args.t_obs,
            "tau_s": args.tau,
        },
    }
    _report(args, payload, _FLOOR_TEXT)
    return 0


_CYCLE_TEXT = (
    (None, "gate              C={capacitance_F:.8e} F  R={resistance_ohm:.8e} ohm  "
     "U1={swing_V:.8e} V  T={temperature_K:.8e} K"),
    (None, "noise sigma       {sigma_V:.8e} V"),
    (None, "threshold         {threshold_V:.8e} V  "
     "({threshold_fraction:.2f} of swing)"),
    (None, "epsilon per obs   {epsilon_per_observation:.8e}"),
    (None, "accounting        {accounting_label}"),
    (None, "  input charging  {e_input_J:.8e} J = {e_input_kT:.3f} kT"),
    (None, "  switch friction {e_friction_J:.8e} J = {e_friction_kT:.3f} kT"),
    (None, "  total           {e_total_J:.8e} J = {e_total_kT:.3f} kT"),
    ("floor_short_kT", "floor (short)     {floor_short_kT:.2f} kT = "
     "{floor_short_J:.8e} J"),
    ("no_floor", "floor (short)     not applicable (epsilon = 0.5)"),
    (None, "verdict (friction only)  {verdict_friction_only}"),
    (None, "verdict (total)          {verdict_total}"),
    ("claim_verdict", "claimed per op    {claimed_per_op_J:.8e} J = "
     "{claimed_kT:.3f} kT"),
    ("claim_verdict", "claim verdict     {claim_verdict}"),
)


def cmd_cycle(args) -> int:
    env = PhysicalEnvironment(temperature=args.temp)
    friction = args.friction_per_transition
    if args.friction_kt is not None:
        friction = env.kt_to_joules(args.friction_kt)
    stage = RcStage(
        capacitance=args.cap,
        resistance=args.res,
        swing_voltage=args.swing,
        env=env,
    )
    gate = FollowerGate(
        stage=stage,
        friction_energy_per_transition=friction,
        threshold_fraction=args.threshold_fraction,
    )
    report = run_cycle(gate)

    claimed = args.claimed
    if args.claimed_kt is not None:
        claimed = env.kt_to_joules(args.claimed_kt)
    claim_verdict = None if claimed is None else audit_claim(gate, claimed)

    per_op = args.accounting == "op"
    scale = 0.5 if per_op else 1.0
    payload = {
        "command": "cycle",
        "capacitance_F": args.cap,
        "resistance_ohm": args.res,
        "swing_V": args.swing,
        "temperature_K": args.temp,
        "threshold_fraction": args.threshold_fraction,
        "friction_per_transition_J": friction,
        "accounting": args.accounting,
        "epsilon_per_observation": report.epsilon_per_observation,
        "e_input_J": scale * report.e_input_cycle,
        "e_input_kT": scale * report.e_input_cycle_kt,
        "e_friction_J": scale * report.e_friction_cycle,
        "e_friction_kT": scale * report.e_friction_cycle_kt,
        "e_total_J": scale * report.e_total_cycle,
        "e_total_kT": scale * report.e_total_cycle_kt,
        "floor_short_kT": report.floor_short_kt,
        "floor_short_J": report.floor_short_joule,
        "verdict_friction_only": report.verdict_friction_only,
        "verdict_total": report.verdict_total,
        "claimed_per_op_J": claimed,
        "claim_verdict": claim_verdict,
    }
    claimed_kt = None if claimed is None else env.joules_to_kt(claimed)
    # Finite inputs can still overflow: C*U1**2 near the float limit is
    # finite in joules but not in kT units.
    for name, value in (*payload.items(), ("claimed_kT", claimed_kt)):
        if name.endswith(("_J", "_kT")) and value == math.inf:
            raise ValueError(f"{name} overflows a float for these inputs")
    _report(
        args, payload, _CYCLE_TEXT,
        sigma_V=stage.noise_sigma,
        threshold_V=args.threshold_fraction * args.swing,
        accounting_label="per operation (half cycle)" if per_op
        else "per cycle (one 0->1->0)",
        no_floor=report.floor_short_kt is None,
        claimed_kT=claimed_kt,
    )
    if args.strict and claim_verdict == CLAIM_NEGLECTS:
        return 3
    return 0


_MC_TEXT = (
    (None, "sigma             {sigma_V:.8e} V"),
    (None, "tau               {tau_s:.8e} s"),
    (None, "threshold         {threshold_V:.8e} V  ({threshold_sigma:.2f} sigma)"),
    (None, "observations      {n_observations}  "
     "(one per tau over {observation_time_s:.8e} s)"),
    (None, "trials            {trials}  seed {seed}  workers {workers}"),
    (None, "hits              {hits}"),
    (None, "epsilon_hat       {epsilon_hat:.8e}"),
    (None, "std_err           {std_err:.8e}"),
    (None, "analytic (independent samples)  {analytic_epsilon:.8e}"),
    (None, "low confidence    {low_confidence_flag}"),
    ("low_confidence", "warning: expected hit count below 10; estimate is unreliable"),
)


def cmd_mc(args) -> int:
    _refuse_unwritable("--dump-path", args.dump_path)
    env = PhysicalEnvironment(temperature=args.temp)
    stage = RcStage(
        capacitance=args.cap, resistance=args.res, swing_voltage=0.0, env=env
    )
    process = OuProcess.from_stage(stage)
    threshold = args.threshold_sigma * process.stationary_sigma
    result = first_passage_mc(
        stage=stage,
        threshold=threshold,
        observation_time=args.t_obs,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    if args.dump_path is not None:
        path = stationary_path(
            process,
            dt=process.correlation_time,
            n=result.n_observations,
            seed=args.seed,
            path_index=0,
        )
        path.write_csv(args.dump_path)
    payload = {
        "command": "mc",
        "capacitance_F": args.cap,
        "resistance_ohm": args.res,
        "temperature_K": args.temp,
        "sigma_V": process.stationary_sigma,
        "tau_s": process.correlation_time,
        "threshold_sigma": args.threshold_sigma,
        "threshold_V": threshold,
        "observation_time_s": args.t_obs,
        "n_observations": result.n_observations,
        "trials": result.trials,
        "seed": args.seed,
        "workers": args.workers,
        "hits": result.hits,
        "epsilon_hat": result.epsilon_hat,
        "std_err": result.std_err,
        "analytic_epsilon": result.analytic_epsilon,
        "low_confidence": result.low_confidence,
    }
    _report(
        args, payload, _MC_TEXT,
        low_confidence_flag="yes" if result.low_confidence else "no",
    )
    return 0


_TANK_TEXT = (
    (None, "tank              L={inductance_H:.8e} H  C1={c1_F:.8e} F  "
     "C2={c2_F:.8e} F  R={resistance_ohm:.8e} ohm  V0={v0_V:.8e} V"),
    (None, "quality factors   q1={quality_factors[0]:.2f}  "
     "q2={quality_factors[1]:.2f}"),
    (None, "schedule          t1={schedule_s[0]:.8e} s  t2={schedule_s[1]:.8e} s"),
    (None, "energy initial    {energy_initial_J:.8e} J"),
    (None, "energy delivered  {closed_form[energy_delivered_J]:.8e} J"),
    (None, "efficiency        {closed_form[efficiency]:.8f}"),
    ("rk4", "rk4 efficiency    {rk4[efficiency]:.8f}  (relative gap {rk4_gap:+.1e})"),
    ("break_even", "switch control    {break_even[n_switches]} x "
     "{break_even[e_switch_kT]:.3f} kT = {overhead_J:.8e} J"),
    ("break_even", "net saving        {break_even[net_saving_J]:.8e} J"),
    ("break_even", "break-even energy {break_even[break_even_J]:.8e} J = "
     "{break_even[break_even_kT]:.3f} kT"),
)


def cmd_tank(args) -> int:
    _refuse_unwritable("--dump-waveform", args.dump_waveform)
    env = PhysicalEnvironment(temperature=args.temp)
    run_rk4 = args.simulate or args.dump_waveform is not None
    if args.dt is not None and not run_rk4:
        raise ValueError("--dt needs --simulate or --dump-waveform")
    # Checked even without --e-switch-kt, the only option that reads it.
    require_switch_count("--n-switches", args.n_switches)
    tank = TankCircuit(
        c1=args.c1,
        c2=args.c2,
        inductance=args.inductance,
        series_resistance=args.resistance,
        initial_voltage=args.v0,
    )
    closed = tank.transfer_efficiency()
    # Priced in kT before any file is written, as the sweep prices its row.
    breakeven = overhead = None
    if args.e_switch_kt is not None:
        overhead_kt, break_even_kt = break_even_energy(
            args.e_switch_kt, closed.efficiency, args.n_switches
        )
        overhead = env.kt_to_joules(overhead_kt)
        breakeven = {
            "e_switch_kT": args.e_switch_kt,
            "n_switches": args.n_switches,
            "net_saving_J": closed.energy_delivered - overhead,
            "break_even_J": env.kt_to_joules(break_even_kt),
            "break_even_kT": break_even_kt,
        }
        # Finite in kT can still overflow in joules at an extreme --temp.
        for name, value in (("overhead_J", overhead), ("break_even_J", breakeven["break_even_J"])):
            if value == math.inf:
                raise ValueError(f"{name} overflows a float for these inputs")

    rk4 = rk4_gap = None
    if run_rk4:
        if closed.efficiency == 0.0:
            raise ValueError("closed-form efficiency is 0; the RK4 gap is undefined")
        rk4 = tank.simulate_transfer(dt=args.dt, record=args.dump_waveform is not None)
        if args.dump_waveform is not None:
            write_numeric_csv(args.dump_waveform, WAVEFORM_COLUMNS, rk4.waveform)
        rk4_gap = (rk4.efficiency - closed.efficiency) / closed.efficiency

    payload = {
        "command": "tank",
        "inductance_H": args.inductance,
        "c1_F": args.c1,
        "c2_F": args.c2,
        "resistance_ohm": args.resistance,
        "v0_V": args.v0,
        "temperature_K": args.temp,
        "quality_factors": list(tank.quality_factors),
        "schedule_s": [closed.phase1_duration, closed.phase2_duration],
        "energy_initial_J": closed.energy_initial,
        "closed_form": {
            "energy_delivered_J": closed.energy_delivered,
            "efficiency": closed.efficiency,
        },
        "rk4": None
        if rk4 is None
        else {
            "energy_delivered_J": rk4.energy_delivered,
            "efficiency": rk4.efficiency,
        },
        "break_even": breakeven,
    }
    _report(args, payload, _TANK_TEXT, rk4_gap=rk4_gap, overhead_J=overhead)
    return 0


def cmd_sweep(args) -> int:
    try:
        spec = load_config(args.config)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.config}: malformed JSON: {exc}") from None
    except SweepConfigError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    for path in (spec.output_path, spec.manifest_path):
        _refuse_unwritable(f"{args.config}: field 'output'", path)
        if Path(path).exists() and Path(path).samefile(args.config):
            raise ValueError(
                f"{args.config}: field 'output': cannot write {str(path)!r}: "
                "it is the config file"
            )
    csv_path, manifest_path = run_sweep(spec)
    print(f"wrote {spec.points} rows to {csv_path} (manifest {manifest_path})")
    return 0


# One row per option: the commands it belongs to; its flag; a converter, a
# tuple of choices, or bool for a switch; its default, ... for a required
# option (a positional is always required); metavar; help; a group whose rows
# are mutually exclusive within a command; and whether main refuses +inf by
# the option's name (the range checks refuse -inf and NaN).
_Option = namedtuple("_Option", "commands flag type default metavar help group finite",
                     defaults=(None, None, "", None, False))
_OPTIONS = (
    _Option("floor cycle mc tank", "--temp", float, ROOM_TEMPERATURE, "K",
            "bath temperature in kelvin (default %(default)s)"),
    _Option("floor cycle mc tank", "--json", bool, help="emit JSON"),
    _Option("floor", "--epsilon", float, ..., "EPS",
            "target error probability, open interval (0, 0.5)"),
    _Option("floor", "--t-obs", float, None, "S",
            "state-holding time for the long floor (needs --tau)"),
    _Option("floor", "--tau", float, None, "S",
            "noise correlation time RC for the long floor (needs --t-obs)"),
    _Option("cycle mc", "--cap", float, ..., "F",
            "gate input (cycle) or node (mc) capacitance in farads"),
    _Option("cycle", "--swing", float, ..., "V", "logic swing U1 in volts"),
    _Option("cycle", "--res", float, 1.0, "OHM",
            "switch on-resistance (does not change the cycle energies)"),
    _Option("cycle", "--friction-per-transition", float, 0.0, "J",
            "internal switch loss per transition, joules (default %(default)s)",
            "friction", True),
    _Option("cycle", "--friction-kt", float, None, "KT",
            "internal switch loss per transition, kT units", "friction", True),
    _Option("cycle", "--threshold-fraction", float, 0.5, "FRAC",
            "decision threshold as a fraction of the swing (default %(default)s)"),
    _Option("cycle", "--claimed", float, None, "J",
            "claimed per-operation energy to audit, joules", "claim", True),
    _Option("cycle", "--claimed-kt", float, None, "KT",
            "claimed per-operation energy to audit, kT units", "claim", True),
    _Option("cycle", "--accounting", ("cycle", "op"), "cycle", None,
            "report energies per full cycle or per operation (half cycle)"),
    _Option("cycle", "--strict", bool,
            help="exit 3 if the claimed energy neglects input charging"),
    _Option("mc", "--res", float, ..., "OHM",
            "node resistance in ohms (sets tau = RC)"),
    _Option("mc", "--threshold-sigma", float, ..., "X",
            "threshold in units of the stationary noise sigma"),
    _Option("mc", "--t-obs", float, ..., "S", "observation window; one "
            f"observation per tau, at most {floors.MAX_MC_OBSERVATIONS}"),
    _Option("mc", "--trials", int, 100000, "N", "Monte Carlo trials (default "
            "%(default)s); trials x (observations + 1) must be at most "
            f"{floors.MAX_MC_DRAWS:.0e}"),
    _Option("mc", "--seed", int, DEFAULT_SEED, "N", "master seed (default %(default)s)"),
    _Option("mc", "--workers", int, 1, "N",
            "accepted for compatibility; the run is serial, so N changes "
            "neither speed nor results"),
    _Option("mc", "--dump-path", str, None, "FILE",
            "write one sampled noise path as CSV columns (t, V)"),
    _Option("tank", "--inductance", float, ..., "H", "tank inductance in henries"),
    _Option("tank", "--c1", float, ..., "F", "source capacitance in farads"),
    _Option("tank", "--c2", float, ..., "F", "destination capacitance in farads"),
    _Option("tank", "--resistance", float, 0.0, "OHM",
            "series loop resistance (default %(default)s: ideal tank)"),
    _Option("tank", "--v0", float, ..., "V", "initial voltage on C1"),
    _Option("tank", "--e-switch-kt", float, None, "KT",
            "control energy per steering switch event, kT units", finite=True),
    _Option("tank", "--n-switches", int, 2, "N",
            "steering switch events per transfer (default %(default)s, minimum 2)"),
    _Option("tank", "--simulate", bool,
            help="cross-check the closed form with fixed-step RK4"),
    _Option("tank", "--dt", float, None, "S", "RK4 step (needs --simulate or "
            "--dump-waveform); must be <= "
            "sqrt(L*min(C1,C2))/100 and coarse enough for at most "
            f"{MAX_RK4_STEPS} steps over both phases"),
    _Option("tank", "--dump-waveform", str, None, "FILE",
            f"write the RK4 waveform as CSV ({', '.join(WAVEFORM_COLUMNS)})"),
    _Option("sweep", "config", str, None, "CONFIG.json", "sweep configuration file"),
)


_COMMANDS = {
    "floor": (cmd_floor, "dissipation floors for a target error probability"),
    "cycle": (cmd_cycle, "full-cycle energy audit of a follower gate"),
    "mc": (cmd_mc, "Monte Carlo first-passage error estimate"),
    "tank": (cmd_tank, "LC recycling transfer efficiency and break-even"),
    "sweep": (cmd_sweep, "one-variable parameter sweep to CSV + manifest"),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """Build the parser for every subcommand, or for ``command`` alone.

    A one-command parser's metavar keeps its usage line naming all five; the
    full parser has none, so its errors for a missing or unknown command
    still name the argument ``command``.
    """
    parser = argparse.ArgumentParser(prog="ktfloor", description="Thermal-noise energy "
        "floors for voltage-controlled logic: cycle energetics, error floors, "
        "first-passage Monte Carlo, and LC recycling break-even.")
    parser.add_argument("--version", action="version", version=f"ktfloor {__version__}")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (_, text) in _COMMANDS.items():
        if command in (None, name):
            sub.add_parser(name, help=text)
    groups = {}
    for opt in _OPTIONS:
        kwargs = {"action": "store_true"} if opt.type is bool else {
            "choices" if isinstance(opt.type, tuple) else "type": opt.type,
            "default": opt.default, "metavar": opt.metavar}
        if opt.default is ...:
            kwargs.update(required=True, default=None)
        for name in opt.commands.split():
            if name not in sub.choices:
                continue
            subparser = sub.choices[name]
            # Groups are made lazily: argparse cannot format an empty one.
            if opt.group and (name, opt.group) not in groups:
                groups[name, opt.group] = subparser.add_mutually_exclusive_group()
            target = groups.get((name, opt.group), subparser)
            target.add_argument(opt.flag, help=opt.help, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Any argv whose first word is not a command gets the full parser.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        for opt in _OPTIONS:
            value = getattr(args, opt.flag.lstrip("-").replace("-", "_"), None)
            if opt.finite and value == math.inf:
                raise ValueError(f"{opt.flag} must be finite, got {value!r}")
        return _COMMANDS[args.command][0](args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation it could not make; Python's own is bare.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
