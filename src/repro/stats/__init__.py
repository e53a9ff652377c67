"""Statistical primitives shared by the analyses.

The paper's figures are built from a handful of statistical shapes:
empirical CDFs (Figs 4, 8, 14-16), weighted and unweighted averages over
time (Figs 3c, 9c, 12c), decade bucketing by view-hours (Figs 3b, 9b,
12b), and ordinary least squares on log-log scatter plots with p-values
(Fig 13).  This package implements each from first principles on numpy,
and holds the inverse normal CDF that synthesis draws Fig 8's durations
through (a port of scipy's, on plain floats).
"""
