"""From the ILP to an unconstrained quadratic model and its spin form.

Every constraint family becomes a weighted penalty: equalities are squared
directly, inequalities get unary slack chains, and the capacity rule stays
linear so overcrowded plans remain visible low in the spectrum. With all
weights at 100 the toy compiles to 20 binary variables and 88 stored
terms, and its ground state is exactly the ILP optimum.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from rollstock import (build_hypergraph, consistent_slacks, encode_ilp,
                       encode_qubo, ising_energy, load_instance, qubo_energy,
                       slack_optimized_energy, to_ising)

inst = load_instance("instances/toy.json")
model = encode_ilp(build_hypergraph(inst), inst)
qubo = encode_qubo(model, lambdas=(100, 100, 100, 100, 100))

print(f"decision vars : {qubo.num_decision}")
print(f"slack vars    : {qubo.num_slack}")
print(f"stored terms  : {qubo.num_terms()} (upper triangular incl. diagonal)")
print(f"constant      : {Fraction(qubo.offset, qubo.den)}")
print(f"denominator   : {qubo.den} (q and the constant are integers over it)")

print("\nslack layout (one unary chain per inequality row):")
for row in qubo.penalty_rows:
    for position, idx in enumerate(row.slack_indices):
        print(f"  s{idx}: {row.tag} [{position}]")

# ---------------------------------------------------------------------------
# Exhaustive sweep over the 2^11 decision assignments, slacks optimized per
# row: the minimum sits at the ILP optimum with energy 4.8, and every
# feasible plan reproduces its objective exactly (penalties vanish).

best = min(
    ((slack_optimized_energy(qubo, x), x)
     for x in product((0, 1), repeat=qubo.num_decision)),
    key=lambda pair: pair[0])
print(f"\nground state energy {best[0]} at x = {best[1]}")

y = consistent_slacks(qubo, best[1])
print(f"with consistent slacks y = {y}")
print(f"energy check: {qubo_energy(qubo, y)}")

# ---------------------------------------------------------------------------
# The spin form via y = (s+1)/2 preserves energies exactly, so annealers
# that speak Ising see the same landscape.

ising = to_ising(qubo)
spins = tuple(2 * v - 1 for v in y)
print(f"\nising: {np.count_nonzero(ising.h)} fields, {len(ising.j)} couplings, "
      f"offset {Fraction(ising.offset, ising.den)}")
print(f"spin-image energy of the optimum: {ising_energy(ising, spins)}")
