"""Complementary pairs and their impulse-like summed autocorrelation.

Walks through the recursive doubling construction, checks the defining
identity C_x[k] + C_y[k] = 2L delta_k in exact integer arithmetic, and
shows the reversal symmetry that later powers the polarimetric scheme.
"""
import numpy as np

from compwave import (
    autocorrelation,
    cross_correlation,
    generate_golay_pair,
    is_golay_pair,
    length64_pair,
    reverse,
)

print("== doubling construction ==")
for log2_length in range(4):
    pair = generate_golay_pair(log2_length)
    print(f"L = {pair.length:2d}  x = {pair.x.tolist()}  y = {pair.y.tolist()}")

pair = generate_golay_pair(3)
L = pair.length
cx = autocorrelation(pair.x)  # int64, entry i at lag i - (L - 1)
cy = autocorrelation(pair.y)
print("\n== autocorrelations of the L = 8 pair ==")
print("lags     ", np.arange(-(L - 1), L).tolist())
print("C_x      ", cx.tolist())
print("C_y      ", cy.tolist())
print("C_x + C_y", (cx + cy).tolist(), " (2L at lag 0, zero elsewhere)")

# each member alone has sidelobes; only the sum is an impulse
worst = int(np.abs(np.delete(cx, L - 1)).max())
print(f"worst single-sequence sidelobe: {worst} of {L}")

print("\n== bundled length-64 pair ==")
fixture = length64_pair()
print(f"complementary: {is_golay_pair(fixture.x, fixture.y)}  (exact integer check)")
c0 = cross_correlation(fixture.x, fixture.y)[fixture.length - 1]  # lag 0
print(f"cross-correlation at lag 0: {c0}")

print("\n== reversal symmetry ==")
x, y = fixture.x, fixture.y
lhs = cross_correlation(reverse(y), reverse(x))
rhs = cross_correlation(x, y)
print(f"C_(rev y)(rev x) == C_x_y element-wise: {np.array_equal(lhs, rhs)}")
print("reversing both members keeps complementarity:",
      is_golay_pair(reverse(x), reverse(y)))
