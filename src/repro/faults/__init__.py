"""repro.faults — the fault-campaign subsystem.

The paper's Section 1 observation — a deactivated link looks exactly
like a faulty one to routing — cuts both ways: the energy-proportional
machinery is only deployable if the network degrades gracefully when
real faults land on top of deliberate rate-scaling.  This package is
the robustness counterpart to :mod:`repro.predict`:

- :mod:`repro.faults.scenario` — the declarative, seeded
  :class:`~repro.faults.scenario.FaultScenario` DSL (link flaps,
  switch-chip failures, Weibull MTBF/MTTR processes, stuck/noisy
  sensors) with a named-scenario registry keyed by
  ``SimulationSpec.faults``.
- :mod:`repro.faults.sensors` — :class:`~repro.faults.sensors.
  FaultySensor`, the deterministic sensor-corruption wrapper.
- :mod:`repro.faults.policy` — the power-gating
  :class:`~repro.faults.policy.FaultAwareEpochController`, optionally
  behind the :class:`~repro.core.gating.ConnectivityGuard` that pins
  the per-dimension ring at minimum-rate-on.
- :mod:`repro.faults.control_faults` — the **control-plane** chaos
  layer (telemetry dropout/staleness/corruption, lost and delayed
  actuations, controller crashes with cold restarts), injected as a
  group proxy between the sensor taps and any registry-routed
  controller, with its own named-scenario registry keyed by
  ``SimulationSpec.control_faults``.  Its defensive counterpart is
  :mod:`repro.core.failsafe`.

Importing this package registers the ``"fault_gated"`` (unprotected)
and ``"fault_pinned"`` (ring-pinned) control modes with
:mod:`repro.core.registry`; the runner imports it lazily the first
time it meets an unregistered control mode or a ``spec.faults``
scenario, mirroring :mod:`repro.predict`.
"""

from __future__ import annotations

from repro.core.controller import ControllerConfig
from repro.core.gating import ConnectivityGuard
from repro.core.registry import (
    control_mode_registered,
    register_control_mode,
)
from repro.core.sensors import UtilizationSensor
from repro.faults.policy import (
    FaultAwareEpochController,
    GatingConfig,
)
from repro.faults.scenario import (
    FaultScenario,
    LinkFlap,
    RandomLinkFaults,
    SensorFault,
    SwitchChipFailure,
    apply_scenario,
    build_scenario,
    register_scenario,
    registered_scenarios,
    scenario_registered,
)
from repro.faults.control_faults import (
    ControlFaultScenario,
    ControlPlaneChaos,
    ControllerCrash,
    CorruptReading,
    DecisionDelay,
    DecisionLoss,
    StaleTelemetry,
    TelemetryDropout,
    build_control_scenario,
    control_scenario_registered,
    register_control_scenario,
    registered_control_scenarios,
)
from repro.faults.sensors import FaultySensor

CONTROL_FAULT_GATED = "fault_gated"
CONTROL_FAULT_PINNED = "fault_pinned"


def _build_sensor(network, spec):
    """The honest utilization sensor, corrupted per the scenario."""
    base = UtilizationSensor()
    if not spec.faults:
        return base
    scenario = build_scenario(spec.faults, spec)
    if scenario.sensor_fault is None:
        return base
    return FaultySensor(base, scenario.sensor_fault, network,
                        seed=scenario.seed)


def _gating_builder(name: str, guarded: bool):
    """Control-mode builder for ``fault_gated`` (unguarded) or
    ``fault_pinned`` (``guarded``: the ring stays on) specs."""
    def build(network, spec, decision_log):
        return FaultAwareEpochController(
            network,
            policy=spec.build_policy(),
            config=ControllerConfig.for_spec(spec),
            sensor=_build_sensor(network, spec),
            decision_log=decision_log,
            guard=ConnectivityGuard(network) if guarded else None,
            name=name,
        )
    return build


for _mode, _guarded in ((CONTROL_FAULT_GATED, False),
                        (CONTROL_FAULT_PINNED, True)):
    if not control_mode_registered(_mode):
        register_control_mode(_mode, _gating_builder(_mode, _guarded))

__all__ = [
    "CONTROL_FAULT_GATED",
    "CONTROL_FAULT_PINNED",
    "FaultScenario",
    "LinkFlap",
    "SwitchChipFailure",
    "RandomLinkFaults",
    "SensorFault",
    "apply_scenario",
    "build_scenario",
    "register_scenario",
    "registered_scenarios",
    "scenario_registered",
    "FaultySensor",
    "FaultAwareEpochController",
    "GatingConfig",
    "ControlFaultScenario",
    "ControlPlaneChaos",
    "ControllerCrash",
    "CorruptReading",
    "DecisionDelay",
    "DecisionLoss",
    "StaleTelemetry",
    "TelemetryDropout",
    "build_control_scenario",
    "control_scenario_registered",
    "register_control_scenario",
    "registered_control_scenarios",
]
