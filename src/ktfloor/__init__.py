"""ktfloor: thermal-noise energy floors for voltage-controlled logic.

Quantifies what one bit actually costs when its voltage rides on Johnson
noise: the C*U1**2 burned per logic cycle by any switched capacitive input,
the kT*ln(1/epsilon) dissipation floor a target error rate enforces, the
extra ln(t_o/tau) price of holding a state, and why inductive energy
recycling cannot dodge the bill once its own switches are paid for.

Exports load on first use (PEP 562): ``import ktfloor`` imports no
submodule, and the first access to a name below, or to a submodule such as
``ktfloor.floors``, imports only the module that defines it.
"""

__version__ = "0.1.0"

# Each exported name, by the module that defines it.
_EXPORTS = {
    "audit": ["AuditReport", "FollowerGate", "audit_claim", "run_cycle"],
    "circuit": ["CycleLedger", "RcStage", "integrated_charge_dissipation"],
    "floors": [
        "ErrorSpec", "FirstPassageResult", "FloorResult", "SwingRequirement",
        "first_passage_mc", "floor_long", "floor_short", "instantaneous_error_prob",
        "log_tail_probability", "multi_sample_error", "observation_count",
        "required_swing", "tail_probability", "tail_quantile",
    ],
    "noise": ["NoisePath", "OuProcess", "path_generator", "sample_path", "stationary_path"],
    "quantities": ["BOLTZMANN_CONSTANT", "ROOM_TEMPERATURE", "PhysicalEnvironment"],
    "sweep": ["SweepConfigError", "SweepSpec", "load_config", "run_sweep"],
    "tank": ["BreakEven", "TankCircuit", "TransferReport", "symmetric_tank_efficiency"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules reachable as attributes of a bare ``import ktfloor``.
_SUBMODULES = {*_EXPORTS, "csvout"}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # An import statement's machinery, which -X importtime reports and
    # importlib.import_module bypasses; it binds the submodule here.
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
