"""Draw red-independent dominating sets with each of the three samplers.

Each sampler certifies a depth floor from its analysis; the demo
recomputes the realized depth from the digraph to show the slack.
"""

import math

from transversals import (
    SamplerConfig,
    build_full_rb,
    build_full_ryb,
    default_inclusion_probability,
    dirac_depth_target,
    exists_ham_transversal,
    gen_bipartite_pm_family,
    gen_dirac_family,
    gen_regular_all_equal,
    naturally_index,
    sample_set_dirac,
    sample_set_lll_ham,
    sample_set_pm,
    support,
    support_depth,
)

print("== biased-bit sampler with targeted resampling (cycle families) ==")
family, _ = gen_regular_all_equal(200, 30, seed=3)
J = build_full_ryb(family)
out = sample_set_lll_ham(J, SamplerConfig(seed=5, m=30))
r = min(
    min(len(J.yellow[v]) for v in range(200)),
    min(len(J.blue[v]) for v in range(200)),
)
floor = math.ceil(default_inclusion_probability(30) * r / 400.0)
print(f"|S| = {len(out.members)}, resamples = {out.resamples}")
print(f"guaranteed depth floor = {floor}, realized d* = {support_depth(support(J, out.members))}")
for w in out.warnings:
    print("  warning:", w)

print("\n== two-step rejection sampler (dense cycle families) ==")
family = gen_dirac_family(60, 0.9, seed=2)
t = exists_ham_transversal(family)
fam_c, _ = naturally_index(family, t)
J = build_full_ryb(fam_c)
out = sample_set_dirac(J, SamplerConfig(seed=4, c=0.9))
print(f"|S| = {len(out.members)}, redraws = {out.resamples}")
print(f"target depth = {dirac_depth_target(60, 0.9)}, realized d* = {support_depth(support(J, out.members))}")

print("\n== per-pair choice sampler (matching families) ==")
family, _ = gen_bipartite_pm_family(60, 20, seed=9)
H = build_full_rb(family)
out = sample_set_pm(H, SamplerConfig(seed=11, alpha=0.5))
r = min(len(H.blue[v]) for v in range(120))
floor = math.ceil(0.5 * r / 2.0)
print(f"|S| = {len(out.members)} (one vertex per pair), resamples = {out.resamples}")
print(f"guaranteed depth floor = {floor}, realized d_cross = {support_depth(support(H, out.members))}")
