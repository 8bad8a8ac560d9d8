"""The six workloads.  Five are closed loop and share the runner in
``harness.py``; ``serve_open`` is open loop and brings its own."""


def closed_loop(name: str):
    """A fresh instance of the closed-loop workload called ``name``."""
    from perfbench.workloads.basin_forward import BasinForward
    from perfbench.workloads.dist_2rank import Dist2Rank
    from perfbench.workloads.ensemble_batch import EnsembleBatch
    from perfbench.workloads.inverse_gn import InverseGN
    from perfbench.workloads.lts_two_layer import LtsTwoLayer

    classes = (BasinForward, EnsembleBatch, LtsTwoLayer, Dist2Rank, InverseGN)
    return {c.name: c for c in classes}[name]()
