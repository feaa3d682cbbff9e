"""Rectangular barriers: transmission resonances, damped modes, the merge
point where the two imaginary-axis QNFs annihilate, and a shallow well's
bound state and damped mode.
"""

import numpy as np

from qnf1d import (
    AsymRectBarrier,
    PhysicalConstants,
    RectBarrier,
    resonances,
    step_bound,
    transcendental_qnfs,
    transmission_probability,
)

c = PhysicalConstants()


def resonance_comb():
    spec = RectBarrier(1.0, 1.0)
    print("rectangular barrier V0 = 1, half-width a = 1:")
    print("  exact transmission resonances at E = V0 + n^2 pi^2 / (8 m a^2):")
    for r in resonances(spec, 4, c):
        print(f"    n={r.index}: E = {r.E:.6f},  T = "
              f"{transmission_probability(spec, r.E, c):.12f}")


def damped_mode_merge():
    print()
    print("imaginary-axis QNFs of the repulsive barrier vs k0 a:")
    for c0a in (0.3, 0.5, 0.6, 0.65, 0.662, 0.67):
        roots = transcendental_qnfs(RectBarrier(c0a**2 / 2.0, 1.0),
                                    "imaginary_axis", c)
        ks = ", ".join(f"{r.k.imag:.4f}i" for r in roots) or "none"
        print(f"  k0 a = {c0a:5.3f}: {len(roots)} mode(s): {ks}")
    print("  the pair merges near k0 a = 0.6627 (at qa = 1.1997) and is gone above")


def well_modes():
    print()
    spec = RectBarrier(-1.0, 0.5)
    print("imaginary-axis QNFs of the well V0 = -1, a = 0.5 (k0 a = 0.707 < 1):")
    for r in transcendental_qnfs(spec, "imaginary_axis", c):
        print(f"  {r.classification}: k = {r.k.imag:.6f}i, inner q = {r.aux:.6f}")
    print("  the damped mode lies above k0: its q is imaginary, y = |q| coth(|q| a)")


def pseudo_resonances():
    print()
    asym = AsymRectBarrier(0.2, 2.5, -0.4, 0.7)
    print("asymmetric barrier: T never reaches 1; the ceiling is the step bound")
    es = np.linspace(2.6, 12.0, 300)
    ts = transmission_probability(asym, es, c)
    bounds = step_bound(asym, es, c)
    print(f"  max T = {ts.max():.6f}, max T/T_step = {(ts / bounds).max():.12f}")
    for r in resonances(asym, 3, c):
        print(f"  pseudo-resonance n={r.index}: E = {r.E:.6f}, T = T_step = {r.T:.6f}")


if __name__ == "__main__":
    resonance_comb()
    damped_mode_merge()
    well_modes()
    pseudo_resonances()
