#!/usr/bin/env python3
"""Sharp smoothing constants and the minimax certificate behind them.

For each half width, the smallest possible operator norm of
second-differencing after smoothing has a closed form. This script checks
the construction three ways: the closed form, a frequency-grid search,
and the equioscillation pattern of the underlying minimax polynomial.
"""

import numpy as np

from smoothkit import (
    build_solution,
    clenshaw_eval,
    closed_form_c2,
    constant_kernel,
    epanechnikov_kernel,
    operator_norm,
    operator_norm_via_polynomial,
    optimal_kernel,
    triangle_kernel,
    verify_equioscillation,
)

print("half width | closed form  | torus grid   | polynomial   | agree")
for n in (1, 2, 5, 10, 25):
    u = optimal_kernel(n)
    closed = closed_form_c2(n)
    torus = operator_norm(u, 2).value
    poly = operator_norm_via_polynomial(u).value
    agree = max(abs(torus - closed), abs(poly - closed)) / closed
    print(f"{n:10d} | {closed:.10f} | {torus:.10f} | {poly:.10f} | {agree:.1e}")

print("\nHow the optimal kernel compares with simpler choices (order 2, n = 10):")
for name, u in [
    ("constant", constant_kernel(10)),
    ("triangle", triangle_kernel(10)),
    ("Epanechnikov", epanechnikov_kernel(10)),
    ("optimal", optimal_kernel(10)),
]:
    v = operator_norm(u, 2).value
    print(f"  {name:12s} {v:.8f}  ({v / closed_form_c2(10):.4f} x optimal)")

print("\nEquioscillation certificate at degree 6:")
sol = build_solution(6)
report = verify_equioscillation(sol, 1e-9)
print(f"  minimax value alpha = {sol.alpha:.10f}")
print("  weighted product (1-x) S(x) at the alternation points:")
for y, val in zip(sol.alternation_points, clenshaw_eval(sol.q, sol.alternation_points)):
    print(f"    x = {y:+.6f}   value = {val:+.10f}")
print(f"  alternates between +alpha and -alpha: {report.passed}")
width = (report.upper - report.lower) / sol.alpha
print(f"  enclosure of the minimax value: {report.lower:.12f} <= alpha* <= {report.upper:.12f} (width {width:.1e} alpha)")
