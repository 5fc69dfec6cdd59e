"""Numeric side of the guarantees: sufficient conditions and count floors."""

from transversals import (
    chernoff_bounds,
    factorial_bounds,
    lll_condition_ham,
    lll_condition_scan,
    pm_degree_threshold,
)

print("== sufficient inequalities for the biased-bit sampler ==")
for m in (261, 262, 300, 1000):
    rep = lll_condition_ham(m)
    print(
        f"m = {m:4d}: first margin {rep.first.margin:+.3e} holds={rep.first.holds}, "
        f"second margin {rep.second.margin:+.3e} holds={rep.second.holds}"
    )

scan = lll_condition_scan(3, 5000)
print(f"scan [3, 5000]: first holds from m = {scan.first_min_m}, transitions {scan.first_transitions}")
print(f"    second holds from m = {scan.second_min_m}, transitions {scan.second_transitions}")
print("    (the second inequality flips twice at the low end, then settles)")

print("\n== guaranteed transversal counts ==")
rows = [
    ("ham-bounded-degree", dict(m=262)),
    ("ham-dirac", dict(n=100, c=1.0, epsilon=1.0)),
    ("ham-dirac", dict(n=8100, c=0.5, epsilon=0.1)),
    ("pm-bounded-degree", dict(m=44)),
    ("pm-dirac", dict(n=100, c=0.5, epsilon=1.0)),
    ("pm-min-degree", dict(m=100, t=pm_degree_threshold(0.5, 100), alpha=0.5)),
]
for bound_id, params in rows:
    val = factorial_bounds(bound_id, **params)
    shown = str(val) if val < 10**15 else f"{float(val):.4e}"
    pstr = ", ".join(f"{k}={v}" for k, v in params.items())
    print(f"  {bound_id}({pstr}) = {shown}")

print("\n== lower-tail failure probabilities ==")
for mu, delta in [(10, 0.5), (100, 0.2), (1000, 0.1)]:
    b1, b2 = chernoff_bounds(mu, delta)
    print(f"  mu = {mu:4d}, delta = {delta}: sharp {b1:.4e}, simple {b2:.4e}")
