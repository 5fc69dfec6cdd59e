"""Draw red-independent dominating sets with each of the three samplers.

Each sampler reads its rows from ``arc_rows`` and certifies a depth
floor from its analysis; the demo prints that floor next to the realized
depth, read from the family, to show the slack.
"""

from transversals import (
    SamplerConfig,
    exists_ham_transversal,
    gen_bipartite_pm_family,
    gen_dirac_family,
    gen_regular_all_equal,
    naturally_index,
    sample_set_dirac,
    sample_set_lll_ham,
    sample_set_pm,
)

print("== biased-bit sampler with targeted resampling (cycle families) ==")
family, _ = gen_regular_all_equal(200, 30, seed=3)
out = sample_set_lll_ham(family, SamplerConfig(seed=5, m=30))
print(f"|S| = {len(out.members)}, resamples = {out.resamples}")
print(f"guaranteed depth floor = {out.depth_floor}, realized d* = {out.depth}")
for w in out.warnings:
    print("  warning:", w)

print("\n== two-step rejection sampler (dense cycle families) ==")
family = gen_dirac_family(60, 0.9, seed=2)
t = exists_ham_transversal(family)
fam_c, _ = naturally_index(family, t)
out = sample_set_dirac(fam_c, SamplerConfig(seed=4, c=0.9))
print(f"|S| = {len(out.members)}, redraws = {out.resamples}")
print(f"target depth = {out.depth_floor}, realized d* = {out.depth}")

print("\n== per-pair choice sampler (matching families) ==")
family, _ = gen_bipartite_pm_family(60, 20, seed=9)
out = sample_set_pm(family, SamplerConfig(seed=11, alpha=0.5))
print(f"|S| = {len(out.members)} (one vertex per pair), resamples = {out.resamples}")
print(f"guaranteed depth floor = {out.depth_floor}, realized d_cross = {out.depth}")
