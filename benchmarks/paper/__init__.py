"""The paper's evaluation (§5): one driver per table, figure and ablation.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.paper [names] [--profile ci|paper] [--out f.md]
"""
