"""Dirichlet-output networks for uncertainty-aware screening.

Logits parameterize a Dirichlet over class probabilities; mutual
information between the label and the simplex draw separates
distributional uncertainty from data uncertainty, which drives
out-of-distribution detection and dual-threshold routing of inputs to
trust / human review / discard.

The package root re-exports nothing: import each name from the module
that defines it, e.g. ``from dpnet.training import train``.
"""
