"""Uncertainty-weighted optimal-transport distillation for keypoint-based
pose estimation, from the transport solver up to a desk-scale experiment.

The package exports only `__version__`; import the submodules themselves
(`otkd.harness`, `otkd.sinkhorn`, `otkd.uakd`, `otkd.pfkd`, ...)."""

__version__ = "0.1.0"
