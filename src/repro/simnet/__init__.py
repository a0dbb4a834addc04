"""Discrete-event network simulation substrate (Figure 8's workload)."""

from repro.simnet.engine import Simulator
from repro.simnet.flows import (
    OnOffFlowGenerator,
    ParetoBurstGenerator,
    PoissonFlowGenerator,
)
from repro.simnet.metrics import (
    DelayRecorder,
    SummaryStatistics,
    time_binned_mean,
)
from repro.simnet.multihop import (
    MultiBottleneckExperiment,
    PathResult,
    build_path,
)
from repro.simnet.queue_sim import BottleneckQueue
from repro.simnet.responsive import AIMDFlowGenerator, FeedbackRouter
from repro.simnet.scenarios import (
    Scenario,
    ScenarioReport,
    ScenarioWindow,
    default_switch_spec,
    iter_scenarios,
    publish_reports,
    register_scenario,
    run_scenario,
    scenario,
    scenario_names,
    traffic_classes_expected,
    traffic_classes_spec,
    traffic_classes_tree,
)
from repro.simnet.workloads import ChunkColumns, hash_u64, integers, \
    pareto, stream_key, uniforms
from repro.simnet.topology import (
    DumbbellExperiment,
    ExperimentResult,
    overload_profile,
)

__all__ = [
    "AIMDFlowGenerator",
    "BottleneckQueue",
    "ChunkColumns",
    "FeedbackRouter",
    "MultiBottleneckExperiment",
    "PathResult",
    "build_path",
    "DelayRecorder",
    "DumbbellExperiment",
    "ExperimentResult",
    "OnOffFlowGenerator",
    "ParetoBurstGenerator",
    "PoissonFlowGenerator",
    "Scenario",
    "ScenarioReport",
    "ScenarioWindow",
    "Simulator",
    "SummaryStatistics",
    "default_switch_spec",
    "hash_u64",
    "integers",
    "iter_scenarios",
    "overload_profile",
    "pareto",
    "publish_reports",
    "register_scenario",
    "run_scenario",
    "scenario",
    "scenario_names",
    "stream_key",
    "time_binned_mean",
    "traffic_classes_expected",
    "traffic_classes_spec",
    "traffic_classes_tree",
    "uniforms",
]
