"""Sample the toy QUBO with simulated annealing and post-filter.

All constraints are soft in the quadratic form, so the sampler's
low-energy states include plans that break them; decoding checks each
sample against the original integer program and only feasible plans enter
the portfolio. Watch the rejected log: capacity-violating (overcrowded)
plans sit only one lambda4 above the optimum, exactly the behaviour the
linear capacity penalty is designed to allow.
"""

from rollstock import AnnealParams, load_instance, sample_portfolio

inst = load_instance("instances/toy.json")

run = sample_portfolio(
    inst,
    lambdas=(100, 100, 100, 100, 100),
    params=AnnealParams(num_reads=100, sweeps=1000,
                        beta_min=0.05, beta_max=10.0, seed=1))

print(f"distinct samples: {len(run.samples.entries)} "
      f"from {run.samples.num_reads} reads")
print(f"share of reads at the lowest sampled energy: {run.success_rate:.2f}")

print("\nfeasible portfolio (sorted by objective):")
for sol in run.portfolio.solutions:
    print(f"  f = {float(sol.objective):<4} arcs = {list(sol.decoded)}")

print("\nrejected low-energy samples:")
for rej in sorted(run.rejected, key=lambda r: r.energy)[:6]:
    chosen = [i for i, v in enumerate(rej.x) if v]
    print(f"  E = {float(rej.energy):<7} x = {chosen} "
          f"violates {', '.join(rej.violated_families)}")

# The capacity-only rejects mirror the documented failure mode: an otherwise
# valid plan that sends a single small unit onto the crowded return trip.
