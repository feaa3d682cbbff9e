import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from qnf1d.errors import DomainError, GammaPoleError
from qnf1d.specfn import lambert_w, lambert_w_comtet, lambert_w_derivative, log_gamma

mp.mp.dps = 30


def wrap_2pi(z: complex) -> complex:
    return complex(z.real, (z.imag + math.pi) % (2.0 * math.pi) - math.pi)


class TestLambertW:
    def test_trivial_values(self):
        assert lambert_w(0, 0.0) == 0.0
        assert abs(lambert_w(0, math.e) - 1.0) < 1e-14
        assert lambert_w(-1, -math.exp(-1.0)) == -1.0

    def test_threshold_value(self):
        # W(1/e) = 0.2784645427610738 gates the double-delta damped mode
        w = lambert_w(0, math.exp(-1.0))
        assert abs(w - 0.27846454276107379) < 1e-14

    def test_branch_one_strip(self):
        w = lambert_w(1, 1.0)
        assert abs(w * cmath.exp(w) - 1.0) < 1e-12
        assert math.pi < w.imag < 3.0 * math.pi

    @pytest.mark.parametrize("n", [-6, -3, -1, 0, 1, 2, 5])
    def test_residual_contract(self, n):
        import random

        rng = random.Random(1000 + n)
        for _ in range(60):
            z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(z) < 1e-3:
                continue
            w = lambert_w(n, z)
            assert abs(w * cmath.exp(w) - z) <= 1e-12 * max(1.0, abs(z))
            assert math.isfinite(w.real) and math.isfinite(w.imag)

    @pytest.mark.parametrize("n", [-4, -2, -1, 0, 1, 3])
    def test_matches_reference_branches(self, n):
        import random

        rng = random.Random(77)
        for _ in range(40):
            z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if abs(z) < 1e-2:
                continue
            w = lambert_w(n, z)
            ref = complex(mp.lambertw(z, n))
            assert abs(w - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_branch_separation_and_ordering(self):
        z = 2.3 + 1.1j
        ws = [lambert_w(n, z) for n in range(-3, 4)]
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                assert abs(ws[i] - ws[j]) > 1e-6
        ims = [w.imag for w in ws]
        assert ims == sorted(ims)

    def test_real_branches(self):
        for x in (-0.3678, -0.25, -0.1, -1e-4):
            w0 = lambert_w(0, x)
            wm1 = lambert_w(-1, x)
            assert w0.imag == 0.0 and wm1.imag == 0.0
            assert w0.real >= -1.0 >= wm1.real

    def test_zero_on_nonprincipal_branch_raises(self):
        with pytest.raises(DomainError):
            lambert_w(1, 0.0)

    @pytest.mark.parametrize("z", [-math.exp(-1.0), -0.25, 0.5, -5.0, 2.0 * math.e**2, 3.0 + 2.0j])
    def test_array_branches_are_the_scalar_calls(self, z):
        # the branch point -1/e, a real z in (-1/e, 0) on both real branches
        branches = np.arange(-50, 201)
        ws = lambert_w(branches, z)
        ref = np.array([lambert_w(int(n), z) for n in branches])
        assert ws.shape == branches.shape
        assert np.array_equal(ws.real, ref.real) and np.array_equal(ws.imag, ref.imag)
        assert np.array_equal(np.signbit(ws.imag), np.signbit(ref.imag))

    def test_array_z_is_nan_where_the_scalar_raises(self):
        ws = lambert_w(np.array([1, 0, 1]), np.array([0.0, 0.0, 1.0]))
        assert np.isnan(ws[0]) and ws[1] == 0.0 and ws[2] == lambert_w(1, 1.0)

    @pytest.mark.parametrize("z", [5e-324, -1e-320, 5e-324j, complex(1e-320, -1e-320)])
    def test_subnormal_z_off_branch_zero_raises(self, z):
        # scipy's lambertw has no value off branch 0 for |z| below about
        # 2.5e-316: an array holds nan there, a number raises, and W_0 is z
        branches = np.array([-2, -1, 1, 3])
        assert np.isnan(lambert_w(branches, z)).all()
        assert np.isnan(lambert_w_derivative(branches, z)).all()
        for n in branches.tolist():
            for f in (lambert_w, lambert_w_derivative):
                with pytest.raises(DomainError, match="no representable value"):
                    f(n, z)
        assert lambert_w(0, z) == z

    def test_exact_inverse_of_x_exp_x(self):
        # W_0(x e^x) = x for x >= -1 (used by the trivial double-delta zero)
        for x in (0.3, 1.0, 2.0):
            assert abs(lambert_w(0, x * math.exp(x)) - x) < 1e-13


class TestLambertWDerivative:
    def test_value_at_e(self):
        assert abs(lambert_w_derivative(0, math.e) - 1.0 / (2.0 * math.e)) < 1e-14

    def test_finite_difference(self):
        h = 1e-6
        for z in (0.04, 0.8, 10.0, 95.0, 1.5 + 2.0j, -4.0 + 3.0j):
            z = complex(z)
            fd = (lambert_w(0, z + h) - lambert_w(0, z - h)) / (2.0 * h)
            assert abs(lambert_w_derivative(0, z) - fd) < 1e-6 * max(1.0, abs(fd))

    def test_diverges_toward_branch_point(self):
        near = abs(lambert_w_derivative(0, -math.exp(-1.0) + 1e-3))
        far = abs(lambert_w_derivative(0, -math.exp(-1.0) + 1e-1))
        assert near > 5.0 * far

    def test_singularities_raise(self):
        with pytest.raises(DomainError):
            lambert_w_derivative(0, 0.0)
        with pytest.raises(DomainError):
            lambert_w_derivative(0, -math.exp(-1.0))


class TestComtet:
    def test_two_term_formula(self):
        # branch 5 at z = 1: L1 = 10 pi i exactly
        val = lambert_w_comtet(5, 1.0, 2)
        l1 = 10j * math.pi
        assert abs(val - (l1 - cmath.log(l1))) < 1e-14

    def test_accuracy_improves_with_branch(self):
        err5 = abs(lambert_w_comtet(5, 1.0, 2) - lambert_w(5, 1.0))
        err50 = abs(lambert_w_comtet(50, 1.0, 2) - lambert_w(50, 1.0))
        assert err50 / abs(lambert_w(50, 1.0)) < err5 / abs(lambert_w(5, 1.0))

    def test_large_argument_principal_branch(self):
        approx = lambert_w_comtet(0, 1e6, 2)
        exact = lambert_w(0, 1e6)
        assert abs(approx - exact) / abs(exact) < 0.02

    def test_third_term_helps(self):
        exact = lambert_w(3, 2.0)
        assert abs(lambert_w_comtet(3, 2.0, 3) - exact) < abs(
            lambert_w_comtet(3, 2.0, 2) - exact
        )

    def test_bad_term_count(self):
        with pytest.raises(DomainError):
            lambert_w_comtet(0, 1.0, 4)

    def test_zero_leading_term(self):
        # L1 = ln 1 + 0 = 0, where ln(L1) has no value
        assert lambert_w_comtet(0, 1.0, 1) == 0
        for branch in (0, np.array([3, 0])):
            with pytest.raises(DomainError):
                lambert_w_comtet(branch, 1.0, 2)

    @pytest.mark.parametrize("terms", [1, 2, 3])
    @pytest.mark.parametrize("z", [0, 0.0, -0.0, 0j])
    def test_zero_argument_has_no_logarithm(self, z, terms):
        # ln z, and so L1, has no value at z = 0, on a number branch and on
        # an array of branches
        for branch in (3, np.array([1, 2, 5])):
            with pytest.raises(DomainError, match="z = 0"):
                lambert_w_comtet(branch, z, terms)


class TestLogGamma:
    def test_known_values(self):
        assert abs(log_gamma(1.0)) < 1e-14
        assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14
        # independent high-precision reference for Gamma at 1 + i
        ref = -0.65092319930185634 - 0.30164032046753320j
        assert abs(log_gamma(1 + 1j) - ref) < 1e-14

    def test_gamma_1_plus_i_modulus_identity(self):
        g = cmath.exp(log_gamma(1 + 1j))
        assert abs(abs(g) ** 2 - math.pi / math.sinh(math.pi)) < 1e-14

    def test_recurrence(self):
        import random

        rng = random.Random(11)
        for _ in range(200):
            r = 10 ** rng.uniform(math.log10(0.5), 2.0)
            th = rng.uniform(-math.pi, math.pi)
            z = cmath.rect(r, th)
            if z.real <= 0 and abs(z.imag) < 0.3:
                continue
            lhs = log_gamma(z + 1)
            rhs = log_gamma(z) + cmath.log(z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_reflection(self):
        import random

        rng = random.Random(12)
        for _ in range(150):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z.imag) < 0.1:
                continue
            lhs = log_gamma(z) + log_gamma(1.0 - z)
            rhs = cmath.log(cmath.pi / cmath.sin(cmath.pi * z))
            assert abs(wrap_2pi(lhs - rhs)) < 1e-10

    def test_imaginary_axis_modulus(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            g2 = abs(cmath.exp(log_gamma(1j * x))) ** 2
            ref = math.pi / (x * math.sinh(math.pi * x))
            assert abs(g2 - ref) / ref < 1e-10

    def test_poles_detected(self):
        for z in (0.0, -1.0, -2.0, -17.0):
            with pytest.raises(GammaPoleError):
                log_gamma(z)

    def test_scalar_is_the_one_element_array(self):
        # scipy's loggamma gives the same bits for a scalar and an array z,
        # so the scalar call is the array path without a change of value
        rng = np.random.default_rng(14)
        z = rng.uniform(-30, 30, 20000) + 1j * rng.uniform(-40, 40, 20000)
        poles = np.arange(-20.0, 1.0)
        g = log_gamma(np.concatenate([z, poles]))
        assert np.isnan(g[len(z):]).all()
        for zi, gi in zip(z.tolist(), g.tolist()):
            ref = complex(special.loggamma(zi))
            assert log_gamma(zi) == gi == ref, zi
            assert math.copysign(1.0, gi.imag) == math.copysign(1.0, ref.imag)
        for p in poles.tolist():
            with pytest.raises(GammaPoleError):
                log_gamma(p)

    def test_matches_reference_everywhere(self):
        import random

        rng = random.Random(13)
        for _ in range(200):
            z = complex(rng.uniform(-30, 30), rng.uniform(-40, 40))
            if abs(z.imag) < 1e-6 and z.real <= 0:
                continue
            ref = complex(mp.loggamma(z))
            assert abs(log_gamma(z) - ref) <= 1e-12 * max(1.0, abs(ref))
