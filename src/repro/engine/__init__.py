"""repro.engine — batched, parallel Monte Carlo simulation engine.

The engine turns trial count and source count from wall-clock
multipliers into batch dimensions:

* :class:`~repro.engine.plan.SimulationPlan` — declarative description
  of a trial batch (model, trials, sources, budget, deterministic seed
  tree).
* :mod:`~repro.engine.batch` — chunk execution: replay chunks run the
  serial reference loop per trial; native chunks advance ``B`` trials
  as a ``(B, n)`` informed matrix through the model-family kernels of
  the :class:`~repro.dynamics.batched.BatchedDynamics` registry
  (providers live next to their models: ``repro.edgemeg.kernels``,
  ``repro.geometric.kernels``, ``repro.mobility.kernels``) and the
  spreading-process kernels of the
  :class:`~repro.protocols.batched.BatchedProtocol` registry
  (``SimulationPlan(protocol=...)``), with a per-trial fallback for
  pairs without native kernels.
* :func:`~repro.engine.executor.run_plan` — ``batched`` / ``parallel``
  execution behind one call.
* :class:`~repro.engine.results.TrialEnsemble` — column-wise results
  that plug into :mod:`repro.analysis`.

See DESIGN.md ("The simulation engine") for the architecture, the
kernel protocol, and the two seed-tree contracts (bit-identical
*replay* vs fast *native*).
"""

from repro.engine.batch import run_multisource_replay
from repro.engine.executor import BACKENDS, default_jobs, run_plan
from repro.engine.plan import RNG_MODES, SimulationPlan
from repro.engine.results import TrialEnsemble

__all__ = [
    "BACKENDS",
    "RNG_MODES",
    "SimulationPlan",
    "TrialEnsemble",
    "default_jobs",
    "run_multisource_replay",
    "run_plan",
]
