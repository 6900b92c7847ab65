"""Buying back SNR inside the null space.

Every vector in the constraint null space suppresses the sidelobes
equally well, so the leftover freedom goes into the SNR ratio
||w||_1^2 / ||w||_2^2 (between 1 and N).  Compares three selections:
the first basis column (arbitrary), the best single basis column
(basis selection), and the restarted fixed-point L1 ascent over
combinations (``coordinate_descent``, the CLI's ``hcd``).
"""
import argparse
import math

from compwave import (
    ResilienceGrid,
    basis_selection,
    coordinate_descent,
    design_matrix,
    null_space_basis,
    null_space_design,
    snr_ratio,
)

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--restarts", type=int, default=6)
parser.add_argument("--sweeps", type=int, default=40, help="map evaluations per restart, in multiples of U")
parser.add_argument("--seed", type=int, default=0)
args = parser.parse_args()

print(f"{'N':>4} {'first':>8} {'basis sel':>10} {'L1 ascent':>11} {'binomial':>9} {'max (=N)':>9}")
for n in (8, 16, 24, 32, 40, 48):
    grid = ResilienceGrid.uniform(0.0, 2.0, n - 1)
    basis = null_space_basis(design_matrix(grid, n))
    first = snr_ratio(null_space_design(n, (0.0, 2.0)).w)
    best_column = snr_ratio(basis_selection(basis))
    report = coordinate_descent(basis, restarts=args.restarts, sweeps=args.sweeps,
                                seed=args.seed)
    binomial = 4.0 ** (n - 1) / math.comb(2 * n - 2, n - 1)
    print(f"{n:>4} {first:>8.2f} {best_column:>10.2f} {report.snr:>11.2f} "
          f"{binomial:>9.2f} {n:>9}")

print("""
The L1 ascent starts one restart at the basis-selection vertex and only
accepts strict improvements, so its column never falls below the
basis-selection column.  For N <= 24 the null space on [0, 2] is a
single direction (U = 1), so all three selections coincide there.  The
binomial column is the closed form 4^(N-1) / C(2N-2, N-1): it grows
like sqrt(N), falling further behind the null-space selections as the
train lengthens.""")
