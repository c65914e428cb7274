"""repro — reproduction of *Information Spreading in Stationary Markovian
Evolving Graphs* (Clementi, Monti, Pasquale, Silvestri; IPDPS 2009).

Public API highlights
---------------------
Models
    :class:`~repro.geometric.GeometricMEG` (mobile radio networks),
    :class:`~repro.edgemeg.EdgeMEG` (birth/death edge dynamics), the
    mobility-model zoo in :mod:`repro.mobility`, and deterministic
    evolving graphs in :mod:`repro.dynamics`.
Processes
    :func:`~repro.core.flood` / :func:`~repro.core.flooding_time` (the
    paper's flooding mechanism) plus the pluggable protocol subsystem
    in :mod:`repro.protocols` — flooding, probabilistic p-flooding,
    expiring (SIR-style) flooding, push / pull / push–pull gossip —
    behind one registry the engine dispatches through
    (:func:`~repro.protocols.spread`,
    :func:`~repro.protocols.spreading_trials`); the legacy baselines of
    :mod:`repro.core.spreading` are :func:`~repro.protocols.spread`
    calls on the same round loop as :func:`~repro.core.flood`.
Engine
    The batched Monte Carlo engine in :mod:`repro.engine`: declare a
    :class:`~repro.engine.SimulationPlan`, execute it with
    :func:`~repro.engine.run_plan` on the ``batched`` or ``parallel``
    backend, and aggregate the outcome as a
    :class:`~repro.engine.TrialEnsemble`.  Trial batches such as
    :func:`~repro.core.flooding_trials` and
    :func:`~repro.core.protocol_trials` accept a ``backend=`` switch
    directly, whose ``serial`` default is the reference loop.
Theory
    Expansion measurement (:mod:`repro.core.expansion`) and the
    paper's bound calculators (:mod:`repro.core.bounds`).
Experiments
    ``python -m repro.experiments <id>`` regenerates every experiment
    table (``--trials/--backend/--jobs`` scale any of them); see
    DESIGN.md for the architecture, the engine seed-tree contracts,
    and the experiment index.
Campaigns
    ``python -m repro.campaign run all --results-dir results/`` runs
    experiment campaigns against the content-addressed result store in
    :mod:`repro.campaign`: completed work units are fetched instead of
    recomputed, killed runs resume, and ``run_sweep(store=...)`` makes
    parameter sweeps incremental the same way.  From Python:
    :func:`plan_experiments` / :func:`plan_sweep` -> :func:`run_campaign`
    against a :class:`ResultStore`.
Service
    The same campaigns over HTTP: ``run --serve`` turns a store into a
    campaign service, ``run --worker URL`` joins it, and
    :class:`~repro.service.ServiceClient` gives Python callers the
    submit / status / lease / results verbs (:mod:`repro.service`).
Observability
    :mod:`repro.obs` — spans, events, counters, JSONL traces, live
    dashboards — is re-exported here as :data:`obs`; the blessed entry
    points are ``obs.span`` / ``obs.event`` / ``obs.configure``.

The names in ``__all__`` are the supported public surface, pinned by
``tests/test_public_api.py``; everything else is internal and may move
without notice.
"""

from repro import obs
from repro.analysis.sweep import parameter_grid, run_sweep
from repro.campaign import (
    CampaignPlan,
    CampaignReport,
    ResultStore,
    WorkUnit,
    plan_experiments,
    plan_sweep,
    run_campaign,
)
from repro.service import ServiceClient, run_worker

from repro.core import (
    FloodingResult,
    foremost_arrival_times,
    temporal_diameter,
    temporal_eccentricity,
    edge_ladder,
    edge_lower_bound,
    edge_upper_bound,
    flood,
    flooding_time,
    flooding_trials,
    geometric_ladder,
    geometric_lower_bound,
    geometric_upper_bound,
    ladder_bound,
    max_flooding_time_over_sources,
    protocol_trials,
    resolve_max_steps,
    unit_ladder_bound,
)
from repro.engine import SimulationPlan, TrialEnsemble, run_plan
from repro.protocols import (
    FLOODING,
    ExpiringFlooding,
    Flooding,
    ProbabilisticFlooding,
    PullGossip,
    PushGossip,
    PushPullGossip,
    SpreadingProtocol,
    resolve_protocol,
    spread,
    spreading_trials,
)
from repro.dynamics import EvolvingGraph, GraphSnapshot, moving_hub_star
from repro.edgemeg import EdgeMEG, IndependentDynamicGraph, SparseEdgeMEG
from repro.geometric import GeometricMEG
from repro.mobility import (
    MobilityMEG,
    RandomDirection,
    RandomWaypoint,
    RandomWaypointTorus,
    SphereWaypointMEG,
    TorusGridWalk,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "EvolvingGraph",
    "GraphSnapshot",
    "GeometricMEG",
    "EdgeMEG",
    "SparseEdgeMEG",
    "IndependentDynamicGraph",
    "MobilityMEG",
    "RandomWaypoint",
    "RandomWaypointTorus",
    "RandomDirection",
    "TorusGridWalk",
    "SphereWaypointMEG",
    "moving_hub_star",
    "foremost_arrival_times",
    "temporal_eccentricity",
    "temporal_diameter",
    "FloodingResult",
    "flood",
    "flooding_time",
    "flooding_trials",
    "max_flooding_time_over_sources",
    "protocol_trials",
    "resolve_max_steps",
    "SimulationPlan",
    "TrialEnsemble",
    "run_plan",
    "SpreadingProtocol",
    "Flooding",
    "FLOODING",
    "ProbabilisticFlooding",
    "ExpiringFlooding",
    "PushGossip",
    "PullGossip",
    "PushPullGossip",
    "resolve_protocol",
    "spread",
    "spreading_trials",
    "ladder_bound",
    "unit_ladder_bound",
    "geometric_ladder",
    "geometric_upper_bound",
    "geometric_lower_bound",
    "edge_ladder",
    "edge_upper_bound",
    "edge_lower_bound",
    "obs",
    "parameter_grid",
    "run_sweep",
    "CampaignPlan",
    "CampaignReport",
    "ResultStore",
    "WorkUnit",
    "plan_experiments",
    "plan_sweep",
    "run_campaign",
    "ServiceClient",
    "run_worker",
]
