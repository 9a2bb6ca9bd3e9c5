"""BetterTogether reproduction: interference-aware fine-grained software
pipelining on heterogeneous SoCs (IISWC 2025).

Public API tour:

* ``repro.soc`` - the virtual-SoC substrate (four calibrated platforms).
* ``repro.stage`` - the Stage/Application pipeline model.
* ``repro.apps`` - AlexNet-dense, AlexNet-sparse, Octree applications.
* ``repro.runtime`` - BT-Implementer: threaded (functional) and
  discrete-event (performance) pipeline back-ends.
* ``repro.core`` - BT-Profiler, BT-Optimizer, autotuner, and the
  :class:`~repro.core.BetterTogether` end-to-end framework.
* ``repro.baselines`` - homogeneous/data-parallel baselines and
  prior-work modeling flows.
* ``repro.eval`` - metrics and the per-figure experiment drivers.

This module imports nothing: ``import repro.errors`` loads two modules.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
