import dataclasses
import math

import numpy as np
import pytest

import phasesync as ps
from reference import rk4_step

# Bound on the RK4 stepper's difference from the v0.7.0 stacked step, which
# sums each stage's terms in another order: 8.2e-15 was the largest measured.
STEPPER_TOL = 1e-13


class TestDiscretize:
    def test_atoms_pass_through(self):
        meas = ps.discretize(ps.AtomList((1.0,), (0.5,), (0.0,)))
        assert meas.n_particles == 1
        assert meas.weights[0] == 1.0
        assert meas.thetas[0] == 0.5
        assert meas.has_atoms

    def test_midpoint_nodes_half_circle(self):
        meas = ps.discretize(ps.Uniform(0.0, np.pi), 4)
        expect = np.array([-3 * np.pi / 4, -np.pi / 4, np.pi / 4, 3 * np.pi / 4])
        assert np.allclose(np.sort(meas.thetas), expect, atol=1e-14)
        assert np.allclose(meas.weights, 0.25, atol=1e-15)

    def test_arc_order_parameter_analytic(self):
        # (1/pi) int_{-pi/2}^{pi/2} cos = 2/pi
        meas = ps.discretize(ps.Uniform(0.0, np.pi / 2), 1000)
        r = ps.weighted_order_parameter(meas.weights, meas.thetas).r
        assert r == pytest.approx(2 / np.pi, abs=1e-6)

    def test_product_grid(self):
        meas = ps.discretize(ps.ProductSpec(ps.Uniform(0, 1.0), ps.Uniform(0, 0.5), 8), 16)
        assert meas.n_particles == 16 * 8
        assert meas.weights.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.unique(meas.omegas).size == 8

    def test_gaussian_arc_masses(self):
        meas = ps.discretize(ps.TruncatedGaussian(0.0, 0.4, 2.0), 256)
        assert meas.weights.sum() == pytest.approx(1.0, abs=1e-13)
        # mass concentrates near the center
        inner = meas.weights[np.abs(meas.thetas) < 0.4].sum()
        assert inner > 0.6

    @pytest.mark.parametrize("n_freq", [0, -3])
    @pytest.mark.parametrize("law", [ps.Uniform(0, 0.5), ps.Dirac(0.0)], ids=["uniform", "dirac"])
    def test_product_needs_a_frequency_node(self, law, n_freq):
        with pytest.raises(ValueError):
            ps.ProductSpec(ps.Uniform(0.0, np.pi), law, n_freq)

    def test_bad_mass_rejected(self):
        with pytest.raises(ValueError):
            ps.discretize(ps.AtomList((0.5, 0.4), (0.0, 1.0), (0.0, 0.0)))

    @pytest.mark.parametrize("phase", [ps.Uniform(0.3, 2.5), ps.TruncatedGaussian(-0.2, 0.7, 2.9)],
                             ids=["uniform", "tgauss"])
    def test_dirac_product_is_phase_spec_bitwise(self, phase):
        # the CLI's default frequency law: crossing with Dirac(0) changes no bit
        a = ps.discretize(ps.ProductSpec(phase, ps.Dirac(0.0)), 1024, coupling=1.3)
        b = ps.discretize(phase, 1024, coupling=1.3)
        for name in ("weights", "thetas", "omegas", "log_jacs"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert (a.coupling, a.has_atoms) == (b.coupling, b.has_atoms)

    @pytest.mark.parametrize("spec,kept", [
        (ps.TruncatedGaussian(0.0, 1e-3, 0.9 * np.pi), 14),
        (ps.ProductSpec(ps.Uniform(0.0, np.pi), ps.TruncatedGaussian(0.0, 1e-3, 0.5)), 1024 * 4),
    ], ids=["narrow-arc", "narrow-law"])
    def test_nodes_of_zero_mass_are_left_out(self, spec, kept):
        # 1010 of 1024 arc cells, and 60 of 64 law cells, underflow to mass 0;
        # the measure refused them as weights that are not positive
        meas = ps.discretize(spec, 1024)
        assert meas.n_particles == kept
        assert np.all(meas.weights > 0.0) and meas.weights.sum() == pytest.approx(1.0, abs=1e-13)

    def test_zero_weight_atom_is_left_out(self):
        # the zero-probability atom of g gave sample_spec an atom of weight 0,
        # which the measure refused as a weight that is not positive
        g = ps.Discrete((-0.3, 0.0, 0.3), (0.5, 0.0, 0.5))
        meas = ps.discretize(ps.StationaryDensity(g, 1.0, 0.5).sample_spec())
        assert meas.n_particles == 2 and meas.has_atoms
        assert np.array_equal(meas.omegas, [-0.3, 0.3]) and np.array_equal(meas.weights, [0.5, 0.5])
        # the others pass through exactly, not renormalised
        meas = ps.discretize(ps.AtomList((0.25, 0.0, 0.75), (0.1, 0.2, 0.3), (0.0, 0.0, 1.0)))
        assert meas.weights.tolist() == [0.25, 0.75] and meas.thetas.tolist() == [0.1, 0.3]

    @pytest.mark.parametrize("weights", [(1.5, -0.5), (0.0, 0.0)], ids=["negative", "all-zero"])
    def test_negative_or_all_zero_atom_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="weights must"):
            ps.discretize(ps.AtomList(weights, (0.0, 1.0), (0.0, 0.0)))

    def test_zero_probability_atom_is_left_out_bitwise(self):
        arc = ps.TruncatedGaussian(0.1, 0.6, 2.5)
        a = ps.discretize(ps.ProductSpec(arc, ps.Discrete((-0.3, 0.3), (1.0, 0.0))), 7)
        b = ps.discretize(ps.ProductSpec(arc, ps.Dirac(-0.3)), 7)
        for name in ("weights", "thetas", "omegas", "log_jacs"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestPhaseLaw:
    """The phase law of a product spec is a Uniform or a TruncatedGaussian on
    an arc: half-width (its halfwidth or cut) at most pi."""

    @pytest.mark.parametrize("law", [ps.Uniform(0.0, 3.2), ps.TruncatedGaussian(0.3, 0.5, 3.2)],
                             ids=["uniform", "tgauss"])
    def test_half_width_above_pi_rejected(self, law):
        with pytest.raises(ValueError, match="at most pi"):
            ps.ProductSpec(law, ps.Uniform(0, 0.5))
        with pytest.raises(ValueError, match="at most pi"):
            ps.discretize(law, 8)

    @pytest.mark.parametrize("law", [ps.Dirac(0.0), ps.Discrete((0.0, 1.0), (0.5, 0.5)),
                                     ps.AtomList((1.0,), (0.0,), (0.0,))], ids=["dirac", "discrete", "atoms"])
    def test_other_laws_rejected(self, law):
        with pytest.raises(TypeError, match="phase law"):
            ps.ProductSpec(law, ps.Dirac())

    @pytest.mark.parametrize("make", [lambda c: ps.Uniform(c, np.pi), lambda c: ps.TruncatedGaussian(c, 0.5, np.pi)],
                             ids=["uniform", "tgauss"])
    def test_full_circle_is_checked_on_the_field(self, make):
        # at this centre the rounded ends lie more than 2 pi apart, so a test
        # of the support's width would refuse a valid full-circle arc
        law = make(-7.96)
        lo, hi = law.support()
        assert hi - lo > 2 * np.pi
        assert ps.discretize(ps.ProductSpec(law, ps.Dirac()), 16).n_particles == 16


class TestPhaseMeasureValidation:
    @pytest.mark.parametrize("field", ["thetas", "omegas"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_particle_data_rejected(self, field, bad):
        data = {"weights": [0.5, 0.5], "thetas": [0.1, 0.2], "omegas": [0.0, 0.3]}
        data[field] = [0.1, bad]
        with pytest.raises(ValueError, match="finite"):
            ps.PhaseMeasure.initial(**data)

    @pytest.mark.parametrize("bad", [{"time": math.nan}, {"time": math.inf}, {"log_jacs": [math.inf]},
                                     {"log_jacs": [math.nan], "time": 1.0}])
    def test_non_finite_time_log_jacs_and_start_phases_rejected(self, bad):
        # each of these built before v0.13.0; a NaN time also skipped the
        # zero-log-Jacobian check, and the run failed after its first step
        data = {"weights": [1.0], "thetas": [0.1], "omegas": [0.0], "log_jacs": [0.0], **bad}
        with pytest.raises(ValueError, match="finite"):
            ps.PhaseMeasure(**data)

    @pytest.mark.parametrize("spec", [lambda: ps.Uniform(center=math.nan),
                                      lambda: ps.TruncatedGaussian(mean=math.inf, sigma=0.5, cut=1.0),
                                      lambda: ps.AtomList((1.0,), (math.nan,), (0.0,)),
                                      lambda: ps.AtomList((1.0,), (0.0,), (math.inf,))],
                             ids=["arc-center", "arc-mean", "atom-theta", "atom-omega"])
    def test_discretize_rejects_non_finite_spec(self, spec):
        # a law refuses a non-finite center or mean when it is built (it
        # blamed the half-width), an atom list when it is discretized
        with pytest.raises(ValueError, match="finite"):
            ps.discretize(spec(), m=8)

    def test_arrays_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            ps.PhaseMeasure([0.5, 0.5], [0.1, 0.2], [0.0], [0.0, 0.0])

    def test_atom_weights_checked_by_the_measure(self):
        with pytest.raises(ValueError, match="weights must sum to 1"):
            ps.discretize(ps.AtomList((0.5, 0.4), (0.0, 1.0), (0.0, 0.0)))


class TestKineticStep:
    def test_single_atom_fixed_log_jac_rate(self):
        meas = ps.discretize(ps.AtomList((1.0,), (0.0,), (0.0,)), coupling=2.0)
        cur = meas
        for _ in range(100):
            cur = ps.kinetic_step(cur, 0.01)
        assert cur.thetas[0] == pytest.approx(0.0, abs=1e-14)
        # R = 1, cos = 1: log-Jacobian decreases at exactly -K
        assert cur.log_jacs[0] == pytest.approx(-2.0 * 1.0, rel=1e-10)

    def test_free_flow(self):
        meas = ps.discretize(ps.ProductSpec(ps.Uniform(0, 2.0), ps.Uniform(0, 1.0), 8), 8, coupling=0.0)
        cur = meas
        for _ in range(50):
            cur = ps.kinetic_step(cur, 0.1)
        assert np.allclose(cur.thetas, meas.thetas + 5.0 * cur.omegas, atol=1e-12)
        assert np.all(cur.log_jacs == 0.0)

    def test_weights_and_time(self):
        meas = ps.discretize(ps.Uniform(0, 2.0), 32)
        out = ps.kinetic_step(meas, 0.05)
        assert np.array_equal(out.weights, meas.weights)
        assert out.time == pytest.approx(0.05)

    def test_finite_n_equivalence(self):
        # atomic measure trajectory matches the finite-N integrator
        for seed in range(5):
            n = 5 + 9 * seed
            ens = ps.seeded_ensemble(n, coupling=1.2, seed=seed, freq_halfwidth=0.5)
            meas = ps.PhaseMeasure.from_ensemble(ens)
            cur_e, cur_m = ens, meas
            for _ in range(200):
                cur_e = ps.step_rk4(cur_e, 0.01)
                cur_m = ps.kinetic_step(cur_m, 0.01)
            assert np.max(np.abs(cur_e.phases - cur_m.thetas)) < 1e-10

    def test_finite_n_bitwise(self):
        # the finite ensemble is the equal-weight measure: same field, same stepper
        ens = ps.seeded_ensemble(12, coupling=1.3, seed=4, freq_halfwidth=0.5)
        cur_e, cur_m = ens, ps.PhaseMeasure.from_ensemble(ens)
        for _ in range(300):
            cur_e = ps.step_rk4(cur_e, 0.01)
            cur_m = ps.kinetic_step(cur_m, 0.01)
        assert np.array_equal(cur_e.phases, cur_m.thetas)

    def test_dt_validation(self):
        meas = ps.discretize(ps.Uniform(0, 1.0), 8)
        with pytest.raises(ValueError):
            ps.kinetic_step(meas, 0.0)

    def test_nan_dt_is_refused(self):
        # it passed dt <= 0 and aborted as a non-finite state at t = nan
        meas = ps.discretize(ps.Uniform(0, 1.0), 8)
        with pytest.raises(ValueError, match="dt must be > 0"):
            ps.kinetic_step(meas, float("nan"))

    def test_overflow_raises_at_the_step_time(self):
        # the exact step, theta + dt*omega = 2e308, overflows
        meas = ps.PhaseMeasure.initial([0.5, 0.5], [1e308, 1e308], [1e308, 1e308], has_atoms=True)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ps.NonFiniteStateError) as err:
                ps.kinetic_step(meas, 1.0)
        assert err.value.time == 1.0

    def test_moved_measure_matches_validated_rebuild(self):
        # oracle: the step as v0.7.0 built it, through dataclasses.replace
        # and so through every check of __post_init__; the moved fields match
        # it to STEPPER_TOL, the others bitwise
        spec = ps.ProductSpec(ps.TruncatedGaussian(0.2, 0.8, 2.5), ps.Uniform(0.1, 0.4), 16)
        cur = ref = ps.discretize(spec, 64, coupling=1.7)
        for _ in range(20):
            cur = ps.kinetic_step(cur, 0.03)
            y = np.stack(rk4_step(lambda y: np.stack(ps.field(y[0], ref.omegas, ref.weights, ref.coupling)),
                                  np.stack([ref.thetas, ref.log_jacs]), 0.03))
            ref = dataclasses.replace(ref, thetas=y[0], log_jacs=y[1], time=ref.time + 0.03)
        assert type(cur) is ps.PhaseMeasure
        for f in dataclasses.fields(ps.PhaseMeasure):
            got, want = getattr(cur, f.name), getattr(ref, f.name)
            assert np.asarray(got).dtype == np.asarray(want).dtype and type(got) is type(want), f.name
            if f.name in ("thetas", "log_jacs"):
                assert np.max(np.abs(got - want)) <= STEPPER_TOL, f.name
            else:
                assert np.array_equal(got, want), f.name


class TestKineticSimulate:
    def test_time_is_step_count_times_dt(self):
        # a rotating arc whose frequencies spread wider than K = 1 can lock
        # (K_c = 4 / pi) is never stationary, so the run reaches t_max
        meas = ps.discretize(ps.ProductSpec(ps.Uniform(0.0, 2.5), ps.Uniform(0.3, 1.0), n_freq=8), 16)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=60, record_every=1000))
        assert traj.stopped_on == "t_max"
        assert traj.times[-1] == 6000 * 0.01
        assert traj.final.time == 6000 * 0.01

    def test_rotating_lock_stops_in_the_co_rotating_frame(self):
        # frequencies of mean 0.25 lock at K = 1 and the locked arc turns at
        # 0.25: the run stops on max|v - 0.25| < tol, long before t_max
        meas = ps.discretize(ps.ProductSpec(ps.Uniform(0.0, 1.0), ps.Uniform(0.25, 0.1), n_freq=8), 32)
        assert float(meas.weights.dot(meas.omegas)) == pytest.approx(0.25, abs=1e-15)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=100, record_every=10))
        assert traj.stopped_on == "stationary" and traj.times[-1] < 30
        assert traj.r_series[-1] > 0.99

    def test_blow_up_is_numerical_abort(self):
        ens = ps.OscillatorEnsemble([0.0, 1.0], [1e308, -1e308])
        meas = ps.PhaseMeasure.from_ensemble(ens)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ps.NonFiniteStateError):
                ps.kinetic_simulate(meas, ps.SimConfig(dt=1.0, t_max=4.0, record_every=2))

    def test_blow_up_is_numerical_abort_above_half_angle_cut(self):
        n = ps.core.HALF_ANGLE_MIN
        ens = ps.OscillatorEnsemble(np.linspace(0.0, 1.0, n), np.tile([1e308, -1e308], n // 2))
        meas = ps.PhaseMeasure.from_ensemble(ens)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ps.NonFiniteStateError):
                ps.kinetic_simulate(meas, ps.SimConfig(dt=1.0, t_max=4.0, record_every=2))

    @pytest.mark.parametrize("m,n_freq", [(8, 8), (64, 64)])
    def test_matches_stacked_rk4_bitwise(self, m, n_freq):
        # oracle: one RK4 step of the stacked state [thetas, log_jacs] with the
        # stacked rate [velocity, log-Jacobian rate]; matched to STEPPER_TOL,
        # while the run is bitwise a chain of kinetic_step
        spec = ps.ProductSpec(ps.Uniform(0.3, 2.0), ps.Uniform(0.25, 0.5), n_freq)
        meas = ps.discretize(spec, m, coupling=1.5)
        cfg = ps.SimConfig(dt=0.05, t_max=2.0, record_every=5)
        rate = lambda y: np.stack(ps.field(y[0], meas.omegas, meas.weights, meas.coupling))
        y = np.stack([meas.thetas, meas.log_jacs])
        r, entropy = [], []
        for k in range(int(round(cfg.t_max / cfg.dt)) + 1):
            if k:
                y = rk4_step(rate, y, cfg.dt)
            if k % cfg.record_every == 0:
                r.append(ps.weighted_order_parameter(meas.weights, y[0]).r)
                entropy.append(-float(np.sum(meas.weights * y[1])))
        traj = ps.kinetic_simulate(meas, cfg)
        assert traj.stopped_on == "t_max" and meas.n_particles == m * n_freq
        assert len(traj.r_series) == len(r) and len(traj.entropy_series) == len(entropy)
        for got, want in [(traj.final.thetas, y[0]), (traj.final.log_jacs, y[1]),
                          (traj.r_series, r), (traj.entropy_series, entropy)]:
            assert np.max(np.abs(got - np.asarray(want))) <= STEPPER_TOL
        cur = meas
        for _ in range(int(round(cfg.t_max / cfg.dt))):
            cur = ps.kinetic_step(cur, cfg.dt)
        assert np.array_equal(traj.final.thetas, cur.thetas)
        assert np.array_equal(traj.final.log_jacs, cur.log_jacs)

    @pytest.mark.parametrize("n", [3, 10, 600])
    @pytest.mark.parametrize("halfwidth,t_max", [(0.0, 60.0), (0.5, 3.0)], ids=["stationary", "t_max"])
    def test_finite_run_is_the_equal_weight_kinetic_run(self, n, halfwidth, t_max):
        # simulate is kinetic_simulate of PhaseMeasure.from_ensemble, bit for
        # bit, on both sides of core.HALF_ANGLE_MIN = 512 and for both stops
        ens = ps.seeded_ensemble(n, coupling=1.3, seed=n, freq_halfwidth=halfwidth)
        cfg = ps.SimConfig(dt=0.01, t_max=t_max, record_every=7)
        fin = ps.simulate(ens, cfg)
        kin = ps.kinetic_simulate(ps.PhaseMeasure.from_ensemble(ens), cfg)
        assert type(fin) is type(kin)
        assert fin.stopped_on == kin.stopped_on == ("stationary" if halfwidth == 0.0 else "t_max")
        for name in ("times", "r_series", "mean_phase_series", "h_series", "u_series"):
            assert np.array_equal(getattr(fin, name), getattr(kin, name)), name
        assert fin.phi_series == kin.phi_series
        assert np.array_equal(fin.final.phases, kin.final.thetas)
        assert np.array_equal(fin.states[-1].phases, fin.final.phases)
        # each run keeps what only it has: the finite states, the kinetic entropy
        assert fin.entropy_series is None and len(kin.entropy_series) == len(kin.times)
        with pytest.raises(AttributeError):
            kin.states


class TestObservable:
    def test_mass_is_one(self):
        meas = ps.discretize(ps.Uniform(0.3, 2.0), 100)
        assert ps.observable(meas, lambda th: np.ones_like(th)) == pytest.approx(1.0, abs=1e-12)

    def test_cos_single_atom(self):
        meas = ps.discretize(ps.AtomList((1.0,), (0.8,), (0.0,)))
        assert ps.observable(meas, np.cos) == pytest.approx(np.cos(0.8), abs=1e-14)

    def test_cos_recovers_r_after_convergence(self):
        meas = ps.discretize(ps.Uniform(0.0, 2.0), 200)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=30, record_every=100))
        op = ps.weighted_order_parameter(traj.final.weights, traj.final.thetas)
        val = ps.observable(traj.final, lambda th: np.cos(th - op.phi))
        assert val == pytest.approx(op.r, abs=1e-10)
        # and the sine moment vanishes
        assert ps.observable(traj.final, lambda th: np.sin(th - op.phi)) == pytest.approx(0.0, abs=1e-10)


class TestEntropyChange:
    def test_zero_at_start(self):
        meas = ps.discretize(ps.Uniform(0, 2.0), 64)
        assert ps.entropy_change(meas) == 0.0

    def test_free_flow_zero(self):
        meas = ps.discretize(ps.Uniform(0, 2.0), 64, coupling=0.0)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.05, t_max=5, record_every=20))
        assert ps.entropy_change(traj.final) == 0.0

    def test_derivative_matches_k_r_squared(self):
        meas = ps.discretize(ps.Uniform(0, 2.5), 800)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=5, record_every=1))
        s, r, t = traj.entropy_series, traj.r_series, traj.times
        ds = (s[2:] - s[:-2]) / (t[2:] - t[:-2])
        kr2 = meas.coupling * r[1:-1] ** 2
        assert np.max(np.abs(ds - kr2) / kr2) < 1e-4

    @pytest.mark.parametrize("n", [64, 4096])
    def test_rows_are_the_functionals_of_their_states(self, n):
        # a run's last entropy and H are entropy_change and h_functional of its final state, bitwise
        spec = ps.ProductSpec(ps.Uniform(0.3, 2.0), ps.Uniform(0.25, 0.4), n // 8)
        meas = ps.discretize(spec, 8, coupling=1.3)
        for k in (1, 4, 7):
            traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.05, t_max=k * 0.05, record_every=3))
            assert traj.entropy_series[-1] == ps.entropy_change(traj.final) != 0.0
            assert traj.h_series[-1] == ps.h_functional(traj.final)

    def test_atoms_warn(self):
        meas = ps.discretize(ps.AtomList((1.0,), (0.1,), (0.0,)))
        with pytest.warns(UserWarning):
            ps.entropy_change(meas)


class TestHFunctional:
    def test_identical_reduces_to_kr2_over_2(self):
        meas = ps.discretize(ps.Uniform(0, 2.0), 128, coupling=1.5)
        op = ps.weighted_order_parameter(meas.weights, meas.thetas)
        assert ps.h_functional(meas) == pytest.approx(1.5 * op.r**2 / 2, abs=1e-12)

    def test_free_flow_growth(self):
        meas = ps.discretize(ps.ProductSpec(ps.Uniform(0, 2.0), ps.Uniform(0, 0.5), 16), 32, coupling=0.0)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=3, record_every=50))
        omega2 = float(np.sum(meas.weights * meas.omegas**2))
        growth = traj.h_series[-1] - traj.h_series[0]
        assert growth == pytest.approx(traj.times[-1] * omega2, abs=1e-10)

    def test_h_series_is_h_of_recorded_states(self):
        # recorded rows are the states kinetic_step reaches after k*record_every steps
        meas = ps.discretize(ps.ProductSpec(ps.Uniform(0.3, 2.2), ps.Uniform(0.1, 0.4), 8), 16, coupling=1.2)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=0.5, record_every=10))
        cur, expect = meas, [ps.h_functional(meas)]
        for _ in range(len(traj.times) - 1):
            for _ in range(10):
                cur = ps.kinetic_step(cur, 0.01)
            expect.append(ps.h_functional(cur))
        assert np.array_equal(cur.thetas, traj.final.thetas)
        assert np.allclose(traj.h_series, expect, rtol=1e-14, atol=0.0)

    def test_monotone_along_nonidentical_runs(self):
        for seed in (0, 1, 2):
            hw = 0.2 + 0.15 * seed
            meas = ps.discretize(
                ps.ProductSpec(ps.Uniform(0.3, 2.2), ps.Uniform(0, hw), 16), 48, coupling=1.0
            )
            traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=20, record_every=10))
            assert np.all(np.diff(traj.h_series) >= -1e-7)


class TestFourierMoment:
    def test_atom_k0(self):
        meas = ps.discretize(ps.AtomList((1.0,), (0.0,), (0.3,)))
        assert ps.fourier_moment(meas, 0) == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_k0_is_complex_order_parameter(self):
        meas = ps.discretize(ps.Uniform(0.4, 1.5), 64)
        z = ps.fourier_moment(meas, 0)
        op = ps.weighted_order_parameter(meas.weights, meas.thetas)
        assert abs(z) == pytest.approx(op.r, abs=1e-13)
        assert np.angle(z) == pytest.approx(op.phi, abs=1e-12)

    def test_uniform_circle_all_moments_vanish(self):
        meas = ps.discretize(ps.ProductSpec(ps.Uniform(0, np.pi), ps.Uniform(0, 0.5), 16), 128)
        for k in range(4):
            assert abs(ps.fourier_moment(meas, k)) < 1e-12

    def test_negative_k_rejected(self):
        meas = ps.discretize(ps.Uniform(0, 1.0), 8)
        with pytest.raises(ValueError):
            ps.fourier_moment(meas, -1)


class TestCharacteristicTargets:
    def test_identical_converged_all_plus(self):
        meas = ps.discretize(ps.Uniform(0.0, 2.0), 200)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=40, record_every=100))
        op = ps.weighted_order_parameter(traj.final.weights, traj.final.thetas)
        labels = ps.characteristic_targets(traj.final, 1.0, op.r, op.phi, tol=1e-3)
        assert np.sum(labels != "plus") <= 1

    def test_drifting_tag(self):
        meas = ps.PhaseMeasure.initial([0.5, 0.5], [0.0, 0.1], [0.0, 2.0], has_atoms=True)
        labels = ps.characteristic_targets(meas, 1.0, 0.5, 0.0, tol=1e-2)
        assert labels[1] == "drifting"

    def test_atoms_on_branches(self):
        kr = 0.8
        omegas = np.array([-0.4, 0.0, 0.4])
        plus = 0.1 + np.arcsin(omegas / kr)
        minus = np.pi + 0.1 - np.arcsin(omegas / kr)
        thetas = np.concatenate([plus, minus])
        w = np.full(6, 1 / 6)
        meas = ps.PhaseMeasure.initial(w, thetas, np.tile(omegas, 2), has_atoms=True)
        labels = ps.characteristic_targets(meas, 1.0, 0.8, 0.1, tol=1e-6)
        assert list(labels) == ["plus"] * 3 + ["minus"] * 3

    @pytest.mark.parametrize("coupling,r_star", [(1.0, 0.0), (0.0, 0.5), (-1.0, 0.5), (1.0, math.nan)])
    def test_no_positive_locking_scale_is_refused(self, coupling, r_star):
        # K R* = 0 took arcsin(0/0) and called the omega = 0 particles unresolved
        meas = ps.PhaseMeasure.initial([0.5, 0.5], [0.0, 0.1], [0.0, 0.2], has_atoms=True)
        with pytest.raises(ValueError, match=r"coupling \* r_star must be > 0"):
            ps.characteristic_targets(meas, coupling, r_star, 0.0)


class TestKineticInvariants:
    def test_mean_phase_constant_identical(self):
        meas = ps.discretize(ps.Uniform(0.7, 2.0), 256)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=20, record_every=20))
        drift = np.abs(traj.mean_phase_series - traj.mean_phase_series[0])
        assert np.max(drift) < 1e-6

    def test_phi_cauchy_tail(self):
        meas = ps.discretize(ps.Uniform(0.5, 2.5), 512)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=60, record_every=10))
        phi = np.array([p for p in traj.phi_series if p is not None])
        tail = phi[int(0.9 * phi.size):]
        assert np.max(tail) - np.min(tail) < 1e-4

    def test_nonatomic_converges_to_single_cluster(self):
        meas = ps.discretize(ps.Uniform(0.0, 0.9 * np.pi), 512)
        traj = ps.kinetic_simulate(meas, ps.SimConfig(dt=0.01, t_max=60, record_every=20))
        cls = ps.classify_measure(traj.final)
        assert cls.kind == "clustered"
        assert cls.c2 < ps.MASS_TOL

    @pytest.mark.parametrize("weights", [[0.5, 0.4], [1.2, -0.2], [1.0, 0.0], [0.5, math.nan]])
    def test_constructor_rejects_bad_weights(self, weights):
        # kinetic_step skips these checks; the public constructor keeps them
        z = np.zeros(2)
        with pytest.raises(ValueError):
            ps.PhaseMeasure(weights=np.array(weights), thetas=z, omegas=z, log_jacs=z)

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            ps.PhaseMeasure.initial([0.5, 0.4], [0, 1], [0, 0])  # mass != 1
        with pytest.raises(ValueError):
            ps.PhaseMeasure(
                weights=np.array([1.0]),
                thetas=np.array([0.0]),
                omegas=np.array([0.0]),
                log_jacs=np.array([0.5]),  # nonzero at t=0
            )
