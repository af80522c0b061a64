"""Simulation and closed-form analysis of a reconfigurable reflector shared by two operators.

One operator controls the reflector and serves its UEs through it; a second
operator on another carrier has no say in the configuration but its channels
pass through the same surface. The package provides the channel samplers,
reflector configuration rules, slot-level simulation engine, matching
closed-form rate/outage/distribution expressions, and figure-style experiment
presets with a small CLI (`irsoob`).

Subpackage map:
    kernels      dB conversion, steering vectors, angle grid, Gaussian tail
    channels     geometry, path loss, Rayleigh and sparse channel samplers
    irs          unit phase, scalar phase-configuration rules and effective
                 channels (the references the engine is tested against),
                 response probes
    analytics    closed-form SE, outage, and distribution expressions, and
                 the one guarded quadrature
    engine       vectorized Monte Carlo trials (sub6 OOB gains from their
                 exact reduced law), the OOB scheduler, empirical
                 distributions
    experiments  presets, runners, CSV emission, run manifests, pooled samples
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
