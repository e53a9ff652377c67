"""Synthetic ecosystem generation (the proprietary-data substitute).

Calibrated to the paper's reported statistics; see
``repro.synthesis.calibration`` for the full target list and DESIGN.md
for the substitution rationale.
"""
