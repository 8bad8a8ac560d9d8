"""Utilities: filtering and timing.

The filters (:mod:`repro.util.filters`) import ``scipy.signal``, which
costs most of a solver import; import them from their module where a
filter runs.
"""

from repro.util.timing import Timer

__all__ = ["Timer"]
