"""Simulation and closed-form analysis of a reconfigurable reflector shared by two operators.

One operator controls the reflector and serves its UEs through it; a second
operator on another carrier has no say in the configuration but its channels
pass through the same surface. The package provides the channel samplers,
reflector configuration rules, slot-level simulation engine, matching
closed-form rate/outage/distribution expressions, and figure-style experiment
presets with a small CLI (`irsoob`).

Subpackage map:
    kernels      dB conversion and cascade bins
    channels     geometry, path loss, complex normals, sparse path angles as
                 grid bins
    irs          unit phase, one co-phasing rule and one effective channel
                 for every regime (the references the engine is tested
                 against), the sparse cascade
    analytics    closed-form SE, outage, and distribution expressions, and
                 the one guarded quadrature
    engine       vectorized Monte Carlo trials, whose OOB gains `run_trial`
                 draws in one place from their exact reduced laws, the OOB
                 scheduler, empirical distributions
    experiments  presets as data (spec, note, swept variants), the sweep
                 runner `sweep_points` / `run_spec`, CSV text, manifests
    cli          argparse entry point
"""

__version__ = "0.1.0"

from .analytics import AnalyticParams
from .channels import LinkBudget, NodeGeometry, PathLossParams
from .config import ExperimentSpec, load_spec

__all__ = [
    "AnalyticParams",
    "ExperimentSpec",
    "LinkBudget",
    "NodeGeometry",
    "PathLossParams",
    "load_spec",
    "__version__",
]
