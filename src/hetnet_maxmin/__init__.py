"""Max-min fair joint BS association and power allocation.

Solvers for the per-BS-budget downlink problem (exact Perron-root and
fixed-point power control, sum-power relaxation bounds, two-stage
association heuristics, one-to-one matching via Hungarian/auction),
exhaustive oracles including a 3-SAT network gadget, and a reproducible
HetNet Monte-Carlo harness.

Import from the modules: each module's ``__all__`` is its list of public
names, and the package re-exports none of them.
"""
