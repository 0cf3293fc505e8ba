"""Symmetry-group actions: group structure, transport, and invariance."""

import numpy as np
import pytest

from szegosew import verify
from szegosew.config import POLE_GUARD
from szegosew.epsilon import (EpsilonContext, EpsilonModuli,
                              GenusTwoCharacteristicsEps, SurfacePoint,
                              epsilon_bound)
from szegosew.errors import DomainError
from szegosew.modular import (EpsGroupElement, RhoGroupElement, act_eps,
                              act_eps_moduli, act_eps_point, act_rho,
                              act_rho_point, det_residual,
                              invariance_residual)
from szegosew.rho import HandleTwist, RhoModuliTorus, RhoTorusContext
from szegosew.specialfn import TorusModulus, TwistPair, lattice_distance

TWO_PI_I = 2j * np.pi
T1, T2 = TorusModulus(0.3 + 1.0j), TorusModulus(0.1 + 1.2j)
CHARS = GenusTwoCharacteristicsEps(TwistPair(0.17, 0.38),
                                   TwistPair(0.07, -0.29))
TAU = TorusModulus(0.2 + 1.1j)
W = TWO_PI_I * (0.31 + 0.27 * TAU.tau)

J4 = np.block([[np.zeros((2, 2)), np.eye(2)],
               [-np.eye(2), np.zeros((2, 2))]]).astype(int)


def _eps_moduli():
    return EpsilonModuli.create(T1, T2, 0.02 * epsilon_bound(T1, T2)
                                * np.exp(0.5j))


def _rho_moduli():
    wd = float(lattice_distance(W, TAU))
    return RhoModuliTorus.create(TAU, W, 0.05 * (wd / 2) ** 2 * np.exp(0.6j))


def _eps_pt(which, u, v):
    tau = T1 if which == 1 else T2
    return SurfacePoint(which, TWO_PI_I * (u + v * tau.tau))


class TestGroupStructure:
    def test_sl2_validation(self):
        with pytest.raises(DomainError):
            EpsGroupElement.gamma1(1, 1, 1, 1)
        with pytest.raises(DomainError):
            RhoGroupElement.gamma1(2, 0, 0, 1)

    def test_generators_are_symplectic(self):
        gens = [EpsGroupElement.gamma1(1, 1, 0, 1),
                EpsGroupElement.gamma2(0, -1, 1, 0),
                EpsGroupElement.beta_swap(),
                RhoGroupElement.a_shift(1), RhoGroupElement.b_shift(-1),
                RhoGroupElement.c_power(2),
                RhoGroupElement.gamma1(0, -1, 1, 0)]
        for g in gens:
            m = g.sp4()
            assert np.array_equal(m.T @ J4 @ m, J4), g

    def test_composition_multiplies_sp4(self):
        a = RhoGroupElement.a_shift(1)
        b = RhoGroupElement.gamma1(1, 1, 0, 1)
        # words act left-to-right: (a.compose(b)).sp4() == b.sp4() @ a.sp4()
        assert np.array_equal(a.compose(b).sp4(), b.sp4() @ a.sp4())

    @pytest.mark.parametrize("n", range(-3, 4))
    def test_shift_powers_match_matrix_powers(self, n):
        # A^n and B^n are built in closed form, mu(n,0,0) and mu(0,n,0)
        for shift in (RhoGroupElement.a_shift, RhoGroupElement.b_shift):
            power = np.rint(np.linalg.matrix_power(
                shift(1).sp4().astype(float), n)).astype(int)
            assert np.array_equal(shift(n).sp4(), power), (shift, n)

    @pytest.mark.parametrize("build, args", [
        (EpsGroupElement.gamma1, (1.5, 0, 0, 1)),
        (EpsGroupElement.gamma2, (1, 0.5, 0, 1)),
        (RhoGroupElement.gamma1, (1, 0, 0, 1 + 1e-9)),
        (RhoGroupElement.a_shift, (0.5,)),
        (RhoGroupElement.b_shift, (-1.5,)),
        (RhoGroupElement.c_power, (1j,)),
        (RhoGroupElement.mu, (1, float("nan"), 0)),
        (EpsGroupElement, ((("gamma1", (1.5, 0, 0, 1)),),)),
        (RhoGroupElement, ((("A", 2), ("B", 0.5)),))],
        ids=["eps-gamma1", "eps-gamma2", "rho-gamma1", "A", "B", "C", "mu",
             "eps-word", "rho-word"])
    def test_word_entries_must_be_integers(self, build, args):
        with pytest.raises(DomainError, match="integers"):
            build(*args)

    def test_integral_entries_accepted(self):
        assert EpsGroupElement.gamma1(1.0, 1, 0, 1) \
            == EpsGroupElement.gamma1(1, 1, 0, 1)
        assert RhoGroupElement.a_shift(np.int64(2)).word == (("A", 2),)

    def test_compose_rejects_the_other_group(self):
        eps, rho = EpsGroupElement.gamma1(1, 1, 0, 1), RhoGroupElement.a_shift(1)
        with pytest.raises(DomainError, match="compose"):
            eps.compose(rho)
        with pytest.raises(DomainError, match="compose"):
            rho.compose(EpsGroupElement.identity())
        # a word built directly holds only its own group's generators
        with pytest.raises(DomainError, match="not a generator"):
            EpsGroupElement((("A", 1),))
        with pytest.raises(DomainError, match="not a generator"):
            RhoGroupElement((("beta", None),))

    @pytest.mark.parametrize("n", [-3, -2, -1, 1, 2, 3])
    @pytest.mark.parametrize("shift", ["a_shift", "b_shift"])
    def test_shift_power_acts_as_repeated_unit_shift(self, shift, n):
        # the closed-form multiplier maps of A^n, B^n against n unit steps
        make = getattr(RhoGroupElement, shift)
        steps = RhoGroupElement.identity()
        for _ in range(abs(n)):
            steps = steps.compose(make(1 if n > 0 else -1))
        tw1, handle = TwistPair(0.17, 0.38), HandleTwist(0.1, -0.22)
        mults = (tw1.theta, handle.theta, tw1.phi, handle.phi)
        mr = _rho_moduli()
        m1, mu1 = act_rho(make(n), mr, mults)
        m2, mu2 = act_rho(steps, mr, mults)
        assert max(abs(np.array(mu1) - np.array(mu2))) <= 1e-15
        assert abs(m1.w - m2.w) <= 1e-15 * abs(m2.w)
        assert abs(m1.log_rho - m2.log_rho) <= 1e-15 * abs(m2.log_rho)
        assert m1.winding == m2.winding

    def test_identity_acts_trivially(self):
        m = _eps_moduli()
        c2, m2 = act_eps(EpsGroupElement.identity(), CHARS, m)
        assert m2.epsilon == m.epsilon
        assert abs(c2.tw1.alpha - CHARS.tw1.alpha) < 1e-12
        assert abs(c2.tw2.beta - CHARS.tw2.beta) < 1e-12
        mr = _rho_moduli()
        mults = (TwistPair(0.17, 0.38).theta, HandleTwist(0.1, -0.22).theta,
                 TwistPair(0.17, 0.38).phi, HandleTwist(0.1, -0.22).phi)
        mr2, mu2 = act_rho(RhoGroupElement.identity(), mr, mults)
        assert mr2.w == mr.w and mu2 == mults

    def test_heisenberg_relation(self):
        # the commutator of the two handle translations acts like the
        # central Dehn generator applied twice, inversely
        a, b = RhoGroupElement.a_shift(1), RhoGroupElement.b_shift(1)
        ai, bi = RhoGroupElement.a_shift(-1), RhoGroupElement.b_shift(-1)
        word = a.compose(b).compose(ai).compose(bi)
        assert np.array_equal(word.sp4(), RhoGroupElement.c_power(-2).sp4())
        mults = (TwistPair(0.17, 0.38).theta, HandleTwist(0.1, -0.22).theta,
                 TwistPair(0.17, 0.38).phi, HandleTwist(0.1, -0.22).phi)
        mr = _rho_moduli()
        m1, mu1 = act_rho(word, mr, mults)
        m2, mu2 = act_rho(RhoGroupElement.c_power(-2), mr, mults)
        assert abs(m1.w - m2.w) < 1e-12
        assert max(abs(np.array(mu1) - np.array(mu2))) < 1e-12

    def test_central_generator_commutes(self):
        mults = (TwistPair(0.17, 0.38).theta, HandleTwist(0.1, -0.22).theta,
                 TwistPair(0.17, 0.38).phi, HandleTwist(0.1, -0.22).phi)
        mr = _rho_moduli()
        a, c = RhoGroupElement.a_shift(1), RhoGroupElement.c_power(1)
        ai, ci = RhoGroupElement.a_shift(-1), RhoGroupElement.c_power(-1)
        word = a.compose(c).compose(ai).compose(ci)
        m2, mu2 = act_rho(word, mr, mults)
        assert abs(m2.w - mr.w) < 1e-12
        assert abs(m2.log_rho - mr.log_rho) < 1e-12
        assert max(abs(np.array(mu2) - np.array(mults))) < 1e-12


class TestPointTransport:
    def test_eps_point_stays_on_image_torus(self):
        g = EpsGroupElement.gamma1(0, -1, 1, 0)
        m = _eps_moduli()
        pt = _eps_pt(1, 0.23, 0.31)
        new_pt, _ = act_eps_point(g, m, pt)
        assert new_pt.which == 1
        assert np.isfinite(new_pt.z.real) and np.isfinite(new_pt.z.imag)

    def test_rho_point_half_form_factor_nonzero(self):
        g = RhoGroupElement.gamma1(0, -1, 1, 0)
        m = _rho_moduli()
        z = TWO_PI_I * (0.09 + 0.53 * TAU.tau)
        z2, s = act_rho_point(g, m, z)
        assert abs(s) > 0
        assert np.isfinite(z2.real) and np.isfinite(z2.imag)

    def test_eps_transform_point_map_composes_atoms(self):
        # the one-walk point map of a word equals the single-atom maps
        # applied along the moduli of its prefixes
        m = _eps_moduli()
        atoms = [EpsGroupElement.gamma1(0, -1, 1, 0),
                 EpsGroupElement.beta_swap(),
                 EpsGroupElement.gamma2(1, 1, 1, 2)]
        word = atoms[0].compose(atoms[1]).compose(atoms[2])
        _, point = word.transform(EpsilonContext(CHARS, m, 4))
        for pt in (_eps_pt(1, 0.23, 0.31), _eps_pt(2, 0.58, 0.27)):
            got, s = point(pt)
            assert (got, s) == act_eps_point(word, m, pt)
            step, mod, factor = pt, m, 1.0
            for atom in atoms:
                step, f = act_eps_point(atom, mod, step)
                mod, factor = act_eps_moduli(atom, mod), factor * f
            assert got.which == step.which
            assert abs(got.z - step.z) < 1e-13 * abs(step.z)
            assert abs(s - factor) < 1e-13 * abs(factor)

    def test_rho_transform_point_map_composes_atoms(self):
        m = _rho_moduli()
        tw1, handle = TwistPair(0.17, 0.38), HandleTwist(0.1, -0.22)
        mults = (tw1.theta, handle.theta, tw1.phi, handle.phi)
        atoms = [RhoGroupElement.a_shift(1),
                 RhoGroupElement.gamma1(1, 1, 0, 1),
                 RhoGroupElement.b_shift(-1)]
        word = atoms[0].compose(atoms[1]).compose(atoms[2])
        _, point = word.transform(RhoTorusContext(tw1, handle, m, 4, 16))
        z = TWO_PI_I * (0.09 + 0.53 * TAU.tau)
        got, s = point(z)
        assert (got, s) == act_rho_point(word, m, z)
        step, mod, factor = z, m, 1.0
        for atom in atoms:
            step, f = act_rho_point(atom, mod, step)
            mod, mults = act_rho(atom, mod, mults)
            factor *= f
        assert abs(got - step) < 1e-13 * abs(step)
        assert abs(s - factor) < 1e-13 * abs(factor)


class TestInvariance:
    def test_eps_invariance_small_order(self):
        m = _eps_moduli()
        pairs = [(_eps_pt(1, 0.23, 0.31), _eps_pt(2, 0.33, 0.61)),
                 (_eps_pt(2, 0.58, 0.27), _eps_pt(2, 0.19, 0.66))]
        g = EpsGroupElement.gamma1(1, 1, 0, 1)
        ctx = EpsilonContext(CHARS, m, 12)
        image = g.transform(ctx)
        assert invariance_residual(ctx, image, pairs) < 1e-8
        assert det_residual(ctx, image) < 1e-9

    @pytest.mark.parametrize("g", [g for _, g in verify._RHO_GENERATORS],
                             ids=[name for name, _ in verify._RHO_GENERATORS])
    @pytest.mark.parametrize("alpha2", [0.1, 0.5])
    def test_rho_invariance_small_order(self, alpha2, g):
        # alpha2 = 0.5 is the periodic handle, kappa = -1/2; every
        # residual reads at most 7.9e-16
        m = _rho_moduli()
        x = TWO_PI_I * (0.09 + 0.53 * TAU.tau)
        y = TWO_PI_I * (0.61 + 0.12 * TAU.tau) + W
        tw1, handle = TwistPair(0.17, 0.38), HandleTwist(alpha2, -0.22)
        ctx = RhoTorusContext(tw1, handle, m, 10, 64)
        image = g.transform(ctx)
        assert invariance_residual(ctx, image, [(x, y)]) < 1e-12
        assert det_residual(ctx, image) < 1e-12

    def test_winding_survives_roundtrip(self):
        # translating the puncture up the lattice and back restores the
        # moduli, including the covering-sheet bookkeeping
        m = _rho_moduli()
        mults = (TwistPair(0.17, 0.38).theta, HandleTwist(0.1, -0.22).theta,
                 TwistPair(0.17, 0.38).phi, HandleTwist(0.1, -0.22).phi)
        word = RhoGroupElement.a_shift(1).compose(RhoGroupElement.a_shift(-1))
        m2, mu2 = act_rho(word, m, mults)
        assert abs(m2.w - m.w) < 1e-12
        assert abs(m2.log_rho - m.log_rho) < 1e-12
        assert m2.winding == m.winding
        assert max(abs(np.array(mu2) - np.array(mults))) < 1e-12

    @pytest.mark.parametrize("g", [RhoGroupElement.a_shift(1),
                                   RhoGroupElement.b_shift(1)],
                             ids=["A", "B"])
    def test_shifts_transform_below_the_pole_guard(self, g):
        # at rho = 1e-18 the contour start nodes lie 1.5e-9 from w, inside
        # POLE_GUARD; the sheet probes of the shifts are continued as a
        # build reads its start nodes, with no point check, so A and B
        # transform and leave the kernel and det invariant
        tw1, handle, mod = verify._rho_torus_setup(1e-18)
        assert mod.contour_radius < POLE_GUARD
        ctx = RhoTorusContext(tw1, handle, mod, 8)
        image = g.transform(ctx)
        pairs = verify._rho_torus_pairs(mod, 2)
        assert invariance_residual(ctx, image, pairs) < 1e-12
        assert det_residual(ctx, image) < 1e-12

    def test_transform_rejects_other_scheme_context(self):
        eps_ctx = EpsilonContext(CHARS, _eps_moduli(), 4)
        rho_ctx = RhoTorusContext(TwistPair(0.17, 0.38),
                                  HandleTwist(0.1, -0.22), _rho_moduli(), 4, 16)
        with pytest.raises(DomainError):
            EpsGroupElement.identity().transform(rho_ctx)
        with pytest.raises(DomainError):
            RhoGroupElement.identity().transform(eps_ctx)
