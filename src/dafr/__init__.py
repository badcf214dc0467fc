"""Segmented regression with decile error diagnostics and similarity routing.

Train a baseline line fit, inspect its per-decile MAPE profile, split rows
into front/mid/back target segments, fit one model per segment, and route
new observations to segments with a KNN classifier over standardized
features.

The package exports nothing itself: import each name from its module, as in
``from dafr.pipeline import dafr_train``.
"""
