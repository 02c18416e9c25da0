"""Gradient-affinity prediction of multi-task learning gains and task grouping.

The pipeline: generate a synthetic task suite, train one joint model while
recording per-task losses and shared-parameter gradients, turn those signals
into pairwise and group affinity scores, refine the scores into per-task gain
predictions with a two-stage ensemble (scalar spline-plus-ridge map followed
by per-task residual correction), and pick budgeted task groups maximizing
predicted total gain via branch and bound.

The package re-exports nothing: each name is imported from the module that
defines it, e.g. ``from mtlgrouping.engine import train_mtl``.
"""
