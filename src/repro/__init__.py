"""repro: end-to-end DNN inference on a massively parallel AIMC architecture.

Python reproduction of Bruschi et al., *End-to-End DNN Inference on a
Massively Parallel Analog In Memory Computing Architecture* (DATE 2023).

The package is organised as:

* :mod:`repro.arch` — the hardware template (clusters, IMAs, interconnect,
  HBM, area/energy models, Table I);
* :mod:`repro.dnn` — DNN graph IR, model zoo (ResNet-18 and friends),
  reference numerics and quantisation;
* :mod:`repro.aimc` — functional models of the PCM crossbar datapath;
* :mod:`repro.sim` — the event-driven system simulator (GVSOC substitute);
* :mod:`repro.core` — the paper's contribution: static mapping, splitting,
  replication, reductions, residual management and pipelined execution;
* :mod:`repro.analysis` — metrics, breakdowns and the Fig. 5/6/7 analyses;
* :mod:`repro.scenarios` — declarative experiment specs
  (:class:`Scenario`/:class:`ScenarioGrid`, TOML/JSON spec files), the
  content-hash-keyed :class:`ArtifactCache`, the stage pipeline and the
  parallel :class:`SweepRunner` (``python -m repro.scenarios spec.toml``);
* :mod:`repro.runner` — one-call end-to-end flow, built on the same stages.

Performance note: the analog execution path has two backends.  The default
``backend="vectorized"`` stacks all tiles of a layer into
:class:`~repro.aimc.StackedPCMArray` tensors and executes one batched GEMM
per layer, serving effective weights from a device-state cache computed at
program time whenever reads are deterministic (read noise off — drift at
the fixed ``NoiseModel.drift_time_s`` is deterministic); the cache is
invalidated on reprogramming or a drift-time change.  ``backend="reference"``
keeps the original per-tile ``Crossbar`` loop as the golden model; with
noise disabled both backends agree to float rounding.  The benchmark of
record lives outside the package, in ``perfbench/`` at the repository root
(declared in ``BENCHMARK.json``).
"""

from .arch import ArchConfig
from .core import MappingOptimizer, OptimizationLevel, lower_to_workload
from .dnn import models
from .runner import (
    InferenceReport,
    format_study,
    run_inference,
    run_optimization_study,
)
from .scenarios import (
    ArtifactCache,
    Scenario,
    ScenarioGrid,
    SweepRunner,
    load_spec,
    run_scenario,
    run_sweep,
)
from .sim import simulate

__version__ = "1.1.0"

__all__ = [
    "ArchConfig",
    "ArtifactCache",
    "InferenceReport",
    "MappingOptimizer",
    "OptimizationLevel",
    "Scenario",
    "ScenarioGrid",
    "SweepRunner",
    "__version__",
    "format_study",
    "load_spec",
    "lower_to_workload",
    "models",
    "run_inference",
    "run_optimization_study",
    "run_scenario",
    "run_sweep",
    "simulate",
]
