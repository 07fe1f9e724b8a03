"""Determinant residuals, sampling determinism, and the closed-form cross-checks."""

import cmath
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wpfeq import elliptic as el
from wpfeq import jetpoly as jp
from wpfeq import verifier as vr
from wpfeq.errors import FloatOverflow, PoleProximity, SamplerExhausted

from oracles import shifted_det_vs_sigma_scan, stream_uniforms, transform_jets


class TestFamilies:
    def test_linear_jets(self):
        j = vr.Linear(2.0, 1.0).jets(3.0, 3)
        assert j == (7.0, 2.0, 0.0, 0.0)

    def test_exponential_jets(self):
        j = vr.Exponential(1.0, 0.0, 1.0).jets(0.0, 3)
        assert j == pytest.approx((1.0, 1.0, 1.0, 1.0))

    def test_degenerate_wp_jets(self, degenerate_ctx):
        j = vr.WeierstrassShifted(degenerate_ctx, 0j).jets(0.5, 3)
        assert j == pytest.approx((4.0, -16.0, 96.0, -768.0))

    def test_invalid_families_rejected(self):
        with pytest.raises(ValueError):
            vr.Exponential(delta=0.0)
        with pytest.raises(ValueError):
            vr.Linear(alpha=0.0)

    def test_shifted_jets_hit_poles(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0.5)
        with pytest.raises(PoleProximity):
            fam.jets(-0.5, 2)

    def test_exponential_overflow_is_typed(self):
        with pytest.raises(FloatOverflow):
            vr.Exponential(delta=800).jets(1.0, 1)
        with pytest.raises(FloatOverflow):
            vr.Exponential().antiderivative(800)


class TestFamilyArrays:
    @pytest.mark.parametrize(
        "fam",
        [vr.Exponential(2.0, 0.5j, 1.0 - 0.5j), vr.Linear(1.5 - 1j, 2.0), vr.Constant(0.7 + 0.1j)],
        ids=["exp", "linear", "constant"],
    )
    def test_closed_forms_match_jets(self, fam):
        x = np.random.default_rng(9).uniform(-1.0, 1.0, (40, 2)).view(complex)[:, 0]
        f, df = fam.jets(x, 1)
        assert not np.isnan(f).any()
        for xi, fi, dfi in zip(x.tolist(), f.tolist(), df.tolist()):
            assert (fi, dfi) == pytest.approx(fam.jets(xi, 1), rel=1e-15, abs=1e-15)

    def test_shifted_wp_matches_jets(self, generic_ctx):
        fam = vr.WeierstrassShifted(generic_ctx, 0.4 - 0.3j)
        x = np.append(np.random.default_rng(10).uniform(-2.0, 2.0, (40, 2)).view(complex)[:, 0], 0.3j - 0.4)
        f, df = fam.jets(x, 1)
        assert np.isnan(f).tolist() == [False] * 40 + [True]
        for xi, fi, dfi in zip(x[:40].tolist(), f.tolist(), df.tolist()):
            want = fam.jets(xi, 1)
            assert abs(fi - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
            assert abs(dfi - want[1]) <= 1e-12 * max(1.0, abs(want[1]))

    def test_batch_residual_matches_scalar(self, hex_ctx):
        ff, fg = vr.WeierstrassShifted(hex_ctx, 0.2), vr.WeierstrassShifted(hex_ctx, 0.5j)
        fh = vr.WeierstrassShifted(hex_ctx, -0.2 - 0.5j)
        rng = np.random.default_rng(11)
        x, y = rng.uniform(-2.0, 2.0, (2, 60, 2)).view(complex)[..., 0]
        r, fault = vr.residual(ff, fg, fh, x, y)
        assert not fault.any()
        for xi, yi, ri in zip(x.tolist(), y.tolist(), r.tolist()):
            jets = [fam.jets(p, 1) for fam, p in zip((ff, fg, fh), (xi, yi, -(xi + yi)))]
            want = abs(vr.det3(*jets)) / vr.det3_terms(*jets)
            assert abs(ri - want) <= 1e-12 * max(1.0, want)


class TestDet3:
    def test_repeated_columns_vanish(self):
        j = vr.Exponential().jets(0.37, 1)
        k = vr.Exponential().jets(-0.9, 1)
        assert vr.det3(j, j, k) == 0

    def test_antisymmetry_under_swap(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        ja = fam.jets(0.31 + 0.4j, 1)
        jb = fam.jets(0.9 + 1.1j, 1)
        jc = fam.jets(1.3 + 0.7j, 1)
        rng = np.random.default_rng(5)
        triples = [(ja, jb, jc)] + [
            tuple(fam.jets(complex(*rng.uniform(0.1, 1.9, 2)), 1) for _ in range(3)) for _ in range(50)
        ]
        for ja, jb, jc in triples:
            # a <-> b negates every operand, so it is exact; b <-> c regroups
            # the float sum, so it holds to a few units of round-off of the terms
            assert vr.det3(ja, jb, jc) == -vr.det3(jb, ja, jc)
            (fv, fp), (gv, gp), (hv, hp) = ja, jb, jc
            pairs = ((gv, hp), (fv, hp), (gp, hv), (fp, hv), (fv, gp), (gv, fp))
            terms = sum(abs(u * v) for u, v in pairs)
            assert abs(vr.det3(ja, jb, jc) + vr.det3(ja, jc, jb)) <= 8 * 2.0**-53 * terms

    def test_exponential_unconstrained(self):
        fam = vr.Exponential()
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y, z = (complex(*rng.uniform(-1, 1, 2)) for _ in range(3))
            jf, jg, jh = (fam.jets(t, 1) for t in (x, y, z))
            assert abs(vr.det3(jf, jg, jh)) <= 1e-12 * vr.det3_terms(jf, jg, jh)

    def test_linear_unconstrained_exact(self):
        fam = vr.Linear(2.0, 1.0)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y, z = (complex(*rng.uniform(-1, 1, 2)) for _ in range(3))
            jf, jg, jh = (fam.jets(t, 1) for t in (x, y, z))
            assert abs(vr.det3(jf, jg, jh)) <= 1e-12 * vr.det3_terms(jf, jg, jh)


class TestResidualAndScan:
    def test_wp_triple_solves(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        r, faults = vr.residual(fam, fam, fam, np.array([0.31 + 0.35j]), np.array([0.83 + 1.12j]))
        assert faults.tolist() == [0] and r[0] <= 1e-8

    def test_lattice_third_shift_solves(self, square_ctx):
        d = square_ctx.periods.omega1 / 3.0
        fam = vr.WeierstrassShifted(square_ctx, d)
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=2, count=400), tol=1e-8)
        assert rep.passed

    def test_non_lattice_shift_fails(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0.2)
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=3, count=400), tol=1e-8)
        assert not rep.passed
        assert rep.max_residual > 1e-3

    def test_scan_determinism(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        a = vr.scan(fam, fam, fam, vr.TripleSampler(seed=9, count=100), tol=1e-8)
        b = vr.scan(fam, fam, fam, vr.TripleSampler(seed=9, count=100), tol=1e-8)
        assert a == b

    def test_exponential_scan(self):
        fam = vr.Exponential()
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=0, count=1000, unconstrained=True), 1e-10)
        assert rep.passed
        assert rep.samples == 1000
        assert rep.max_residual >= rep.mean_residual >= 0.0

    def test_report_invariants(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=5, count=50), tol=1e-8)
        assert rep.max_residual >= rep.mean_residual >= 0.0
        assert rep.worst_triple is not None
        x, y, z = rep.worst_triple
        assert abs(x + y + z) <= 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_residual_fails_and_is_named(self, bad):
        triples = [(0.1j, 0.2j, 0.3j), (0.4j, 0.5j, 0.6j), (0.7j, 0.8j, 0.9j)]
        rep = vr._report(np.array(triples), np.array([1e-15, bad, 1e-14]), np.zeros(3, int), 1e-8, "")
        assert not rep.passed
        assert rep.worst_triple == triples[1]
        assert not math.isfinite(rep.max_residual)


class _ReferenceStream:
    """Round k of seed's stream from `stream_uniforms`: uniform(low, high, size) is low + (high - low) u in C order."""

    def __init__(self, seed, k):
        self.seed, self.k = seed, k

    def uniform(self, low=0.0, high=1.0, size=1):
        shape = size if isinstance(size, tuple) else (size,)
        uniforms = stream_uniforms(self.seed, self.k, math.prod(shape))
        return np.array([low + (high - low) * u for u in uniforms]).reshape(shape)


def _pole_radius(monkeypatch, radius: float):
    """Give every sampler the pole radius `radius` on every context, to force redraws."""
    monkeypatch.setattr(vr.TripleSampler, "effective_pole_radius", lambda self, ctx: radius)


class TestSampling:
    def test_stream_is_keyed_by_seed_index_attempt(self, square_ctx, monkeypatch):
        # round k draws one block from round k of the seed's stream; sample i
        # takes row i, (s, t) of x then of y, until x, y and z all clear the
        # pole radius
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        _pole_radius(monkeypatch, 0.5)
        sampler = vr.TripleSampler(seed=4, count=30)
        got = list(sampler.triples((fam, fam, fam)))
        w1, w2 = square_ctx.periods.omega1, square_ctx.periods.omega2
        blocks = [_ReferenceStream(4, k).uniform(0.05, 0.95, (30, 2, 2)) for k in range(40)]
        want, rounds = [], []
        for index in range(30):
            for k, block in enumerate(blocks):
                x, y = (s * w1 + t * w2 for s, t in block[index])
                triple = (x, y, -(x + y))
                if all(el.lattice_distance(square_ctx, p) > 0.5 for p in triple):
                    want.append(triple)
                    rounds.append(k)
                    break
        assert got == want
        assert max(rounds) >= 2  # some samples were redrawn, in later rounds

    def test_one_lattice_distance_call_per_context_and_round(self, square_ctx, hex_ctx, monkeypatch):
        # the admission test is `clear_of_lattice`, which stands for one lattice_distance call
        calls, rounds = [], []
        clear, points = el.clear_of_lattice, vr.TripleSampler._points
        monkeypatch.setattr(el, "clear_of_lattice", lambda *a: calls.append(a[0]) or clear(*a))
        monkeypatch.setattr(vr.TripleSampler, "_points", lambda *a: rounds.append(1) or points(*a))
        _pole_radius(monkeypatch, 0.5)
        sampler = vr.TripleSampler(seed=4, count=30)
        # three shifts on one context, then two contexts and a family with none
        for families, per_round in (
            ([vr.WeierstrassShifted(square_ctx, s) for s in (0j, 0.3, 0.2j)], 1),
            ([vr.WeierstrassShifted(square_ctx), vr.WeierstrassShifted(hex_ctx), vr.Exponential()], 2),
        ):
            calls.clear()
            rounds.clear()
            list(sampler.triples(families))
            assert len(rounds) > 1 and len(calls) == per_round * len(rounds)
        calls.clear()
        rounds.clear()
        # the corner grid point 0.1 + 0.1i lies 0.1414 from the lattice: 0.14 clears it and sends some partners y to a redraw;
        # the grid points pass one admission call, then their partners one per round
        _pole_radius(monkeypatch, 0.14)
        vr.grid_scan(vr.WeierstrassShifted(square_ctx), vr.TripleSampler(), 8, 1e-8)
        assert len(rounds) > 1 and len(calls) == 1 + len(rounds)

    def test_first_uniforms_are_pinned(self):
        # an edit to the mixer, the key's limb fold or the counter moves these
        pinned = {
            (0, 0): [0.13870941014555427, 0.9711020828012883, 0.2778328726049074],
            (2**64 + 1, 3): [0.5541178200148191, 0.4363933830683986, 0.28655844223857474],
        }
        for (seed, k), want in pinned.items():
            assert stream_uniforms(seed, k, 3) == want
            assert vr._Stream(vr._seed_key(seed), k).uniform(size=3).tolist() == want

    def test_without_a_lattice_the_stream_reads_fractions_of_1_and_i(self):
        fam = vr.Exponential()
        got = list(vr.TripleSampler(seed=4, count=3).triples((fam, fam, fam)))
        block = _ReferenceStream(4, 0).uniform(0.05, 0.95, (3, 2, 2))
        want = [(complex(*x), complex(*y), -(complex(*x) + complex(*y))) for x, y in block]
        assert got == want

    def test_prefix_stable(self, square_ctx, monkeypatch):
        fam = vr.WeierstrassShifted(square_ctx, 0.3j)
        _pole_radius(monkeypatch, 0.4)
        long = list(vr.TripleSampler(seed=8, count=100).triples((fam, fam, fam)))
        short = list(vr.TripleSampler(seed=8, count=50).triples((fam, fam, fam)))
        assert long[:50] == short

    @pytest.mark.parametrize(
        "accepted, exhausted", [((0, 199, 398), False), ((0, 199, 399), True)], ids=["600-fit", "601-exhausted"]
    )
    def test_budget_is_pooled_as_sample_by_sample(self, accepted, exhausted):
        # sample i is accepted at attempt accepted[i]: drawing sample by sample spends
        # 1 + 200 + 399 = 600 draws on three samples, the pooled budget of 200 each,
        # though sample 2 alone takes more than 200; one attempt more overspends
        attempts = []

        def draw(rng, n):
            return np.column_stack((np.arange(n), rng.uniform(size=n)))

        def admit(rows):
            attempts.append(len(rows))
            return np.array(accepted)[rows[:, 0].astype(int)] < len(attempts)

        run = lambda: vr._draws(0, 3, draw, admit)  # noqa: E731
        if exhausted:
            with pytest.raises(SamplerExhausted, match="within the pooled 600 draws"):
                run()
            assert sum(attempts) == 600  # the next round would overspend
        else:
            drawn = run()
            assert sum(attempts) == 600
            assert drawn[:, 1].tolist() == [stream_uniforms(0, k, i + 1)[i] for i, k in enumerate(accepted)]

    def test_starved_sampler_spends_the_pooled_budget(self, square_ctx, monkeypatch):
        # every sampler, whatever it draws, runs out after 200 draws per requested sample
        spent = []
        draws = vr._draws

        def starved(seed, count, draw, admit):
            def refusing(rows):
                spent.append(len(rows))
                return np.zeros(len(rows), bool)

            return draws(seed, count, draw, refusing)

        monkeypatch.setattr(vr, "_draws", starved)
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        for run, count in (
            (lambda: list(vr.TripleSampler(count=7).triples((fam, fam, fam))), 7),
            (lambda: vr.grid_scan(fam, vr.TripleSampler(), 3, 1e-8), 9),
            (lambda: vr.sigma_identity_scan(square_ctx, count=5), 5),
        ):
            spent.clear()
            with pytest.raises(SamplerExhausted, match=f"within the pooled {200 * count} draws"):
                run()
            assert sum(spent) == 200 * count

    def test_pole_radius_beyond_the_cell_starves(self, square_ctx, monkeypatch):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        _pole_radius(monkeypatch, 10.0)
        with pytest.raises(SamplerExhausted):
            vr.scan(fam, fam, fam, vr.TripleSampler(), tol=1e-8)

    def test_skip_counts_add_up(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        # h = 0.1 widens the stencil guard to 0.46, so about a third of the draws hit it
        rep = vr.factfun_check(fam, vr.TripleSampler(seed=10, count=80), h_step=0.1)
        skipped = {k: v for k, v in rep.details.items() if k.startswith("skipped_")}
        assert rep.details["skipped_guard"] > 0
        assert rep.details["skipped"] == sum(skipped.values())
        assert rep.samples + rep.details["skipped"] == 80

    def test_clean_scan_reports_zero_skipped(self):
        fam = vr.Exponential()
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=0, count=50), tol=1e-8)
        assert rep.details == {"skipped": 0}

    def test_triple_on_a_pole_is_skipped(self, square_ctx):
        class Fixed:
            def triples(self, families):
                yield (0.3 + 0.4j, 0.5 - 0.2j, -0.8 - 0.2j)
                yield (2.0 + 0j, 0.4j, -2.0 - 0.4j)  # x on the lattice
                yield (0.5 + 0.3j, 1.5 - 0.3j, -2.0 + 0j)  # z on the lattice

        fam = vr.WeierstrassShifted(square_ctx, 0j)
        rep = vr.scan(fam, fam, fam, Fixed(), tol=1e-8)
        assert rep.samples == 1 and rep.passed
        assert rep.details == {"skipped": 2, "skipped_PoleProximity": 2}
        assert rep.worst_triple == (0.3 + 0.4j, 0.5 - 0.2j, -0.8 - 0.2j)

    @pytest.mark.parametrize("invariants", [(0.0, 0.0), (3.0, 1.0)], ids=["rank-0", "rank-1"])
    def test_grid_scan_below_rank_two_uses_the_frame(self, invariants):
        # below rank two x runs over fractions of the frame, (pi/k, i pi/k) or (1, i), on
        # [margin, 1 - margin]^2, and y is redrawn clear of the lattice's poles
        ctx = el.from_invariants(*invariants)
        w = ctx.reduced[0] if ctx.reduced else 1.0
        sampler = vr.TripleSampler(count=4)
        rows, rep = vr.grid_scan(vr.WeierstrassShifted(ctx), sampler, 2, 1e-8)
        assert rep.passed and rep.samples == 4
        ticks = (0.05, 0.05 + 0.9)
        assert [x for x, _, _ in rows] == [s * w + t * (1j * w) for s in ticks for t in ticks]
        assert max(r for _, _, r in rows) <= 1e-8
        for x, y, _ in rows:
            assert min(el.lattice_distance(ctx, np.array([x, y, -x - y]))) > sampler.effective_pole_radius(ctx)

    def test_grid_scan_without_a_lattice_spans_the_samplers_square(self):
        # the grid and the partners share the fractions [margin, 1 - margin]^2 of (1, i)
        sampler = vr.TripleSampler(seed=1, count=16, margin=0.25)
        rows, rep = vr.grid_scan(vr.Exponential(), sampler, 4, 1e-8)
        assert rep.samples == 16
        xs, ys = np.array([x for x, _, _ in rows]), np.array([y for _, y, _ in rows])
        assert (xs.real.min(), xs.real.max(), xs.imag.min(), xs.imag.max()) == (0.25, 0.75, 0.25, 0.75)
        assert min(ys.real.min(), ys.imag.min()) >= 0.25 and max(ys.real.max(), ys.imag.max()) <= 0.75

    def test_grid_scan_on_the_agm_lattice(self, normal_form_ctx):
        fam = vr.WeierstrassShifted(normal_form_ctx)
        rows, rep = vr.grid_scan(fam, vr.TripleSampler(seed=4), 5, 1e-8)
        w1, w2 = normal_form_ctx.periods.omega1, normal_form_ctx.periods.omega2
        assert len(rows) == 25
        assert rows[0][0] == pytest.approx(0.05 * (w1 + w2), rel=1e-15)
        assert rows[-1][0] == pytest.approx(0.95 * (w1 + w2), rel=1e-15)
        assert max(r for _, _, r in rows) == rep.max_residual <= 1e-8

    def test_grid_point_on_a_pole_raises_at_once(self, degenerate_ctx):
        # the middle point 0.5 + 0.5i of an odd grid, shifted by -0.5 - 0.5i, is the pole of 1/z^2:
        # no partner y can help
        fam = vr.WeierstrassShifted(degenerate_ctx, -0.5 - 0.5j)
        with pytest.raises(SamplerExhausted, match=r"grid point 12 at x = \(0\.5\+0\.5j\)"):
            vr.grid_scan(fam, vr.TripleSampler(count=25), 5, 1e-8)

    def test_grid_point_inside_the_pole_radius_raises_at_once(self, square_ctx, monkeypatch):
        # margin 0.01 puts grid point 0 at 0.02 + 0.02i, 0.028 from the origin and inside the
        # sampler's pole radius 0.03 lambda_min = 0.06, which no partner y can clear
        fam = vr.WeierstrassShifted(square_ctx)
        monkeypatch.setattr(vr, "_draws", lambda *a, **k: pytest.fail("drew partners"))
        with pytest.raises(SamplerExhausted, match=r"^grid point 0 at x = \(0\.02\+0\.02j\) lies within 0\.06 "):
            vr.grid_scan(fam, vr.TripleSampler(margin=0.01), 8, 1e-8)

    def test_overflow_in_a_batch_raises(self):
        sampler = vr.TripleSampler(count=50, unconstrained=True)
        with pytest.raises(FloatOverflow):
            vr.constant_case_check(vr.Exponential(delta=800), vr.Exponential(), sampler)


class TestSeeds:
    """A seed is a non-negative integer of any size; every sampler refuses anything else."""

    @staticmethod
    def _samplers(ctx, seed):
        """Each sampler's draws at seed, by name."""
        fam = vr.WeierstrassShifted(ctx)
        return {
            "triples": lambda: list(vr.TripleSampler(seed=seed, count=5).triples((fam, fam, fam))),
            "grid_scan": lambda: vr.grid_scan(fam, vr.TripleSampler(seed=seed), 3, 1e-8)[0],
            "sigma_identity_scan": lambda: vr.sigma_identity_scan(ctx, count=5, seed=seed).worst_triple,
        }

    def _draw_all(self, ctx, seed):
        return [draw() for draw in self._samplers(ctx, seed).values()]

    @pytest.mark.parametrize("sampler", ["triples", "grid_scan", "sigma_identity_scan"])
    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (-(2**70), ValueError), (1.5, TypeError)])
    def test_refused(self, square_ctx, sampler, seed, error):
        with pytest.raises(error):
            self._samplers(square_ctx, seed)[sampler]()

    @pytest.mark.parametrize("seed, same_as", [(np.int64(5), 5), (True, 1), (2**70, None)])
    def test_accepted(self, square_ctx, seed, same_as):
        drawn = self._draw_all(square_ctx, seed)
        if same_as is not None:
            assert drawn == self._draw_all(square_ctx, same_as)

    def test_every_limb_counts(self, square_ctx):
        # 1 and 2**64 + 1 share their low 64 bits
        a, b = self._draw_all(square_ctx, 1), self._draw_all(square_ctx, 2**64 + 1)
        assert all(x != y for x, y in zip(a, b))


# -- the draws against the sampling rule written out ---------------------------------


def _reference_draws(seed, count, draw, admit):
    """Sample i: row i of the first round k's block, draw(_ReferenceStream(seed, k), n), that admit(i, row) passes."""
    drawn, pending, k = [None] * count, list(range(count)), 0
    while pending:
        block = draw(_ReferenceStream(seed, k), pending[-1] + 1)
        for i in pending:
            if admit(i, block[i]):
                drawn[i] = block[i]
        pending, k = [i for i in pending if drawn[i] is None], k + 1
    return drawn


def _clear_by_distance(families, radius):
    """admit(i, row): each point j + shift beyond radius(ctx) of family j's context, one `lattice_distance` per context."""
    groups = {}
    for j, fam in enumerate(families):
        if getattr(fam, "ctx", None) is not None:
            groups.setdefault(id(fam.ctx), (fam.ctx, []))[1].append(j)

    def admit(_, row):
        return all(
            (el.lattice_distance(ctx, np.array([row[j] + families[j].shift for j in cols])) > radius(ctx)).all()
            for ctx, cols in groups.values()
        )

    return admit


def _reference_frame(ctx):
    """The frame of lattice fractions written out: the periods, (w, i w) on the lattice wZ, else (1, i)."""
    if ctx is not None and ctx.periods is not None:
        return ctx.periods.omega1, ctx.periods.omega2
    w = ctx.reduced[0] if ctx is not None and ctx.reduced else 1.0
    return w, 1j * w


def _reference_points(sampler, rng, n, width, ctx):
    """n rows of width points: fractions on [margin, 1 - margin]^2 of the frame."""
    st_ = rng.uniform(sampler.margin, 1.0 - sampler.margin, (n, width, 2))
    w1, w2 = _reference_frame(ctx)
    return (st_[..., 0] * w1 + st_[..., 1] * w2).tolist()


def _reference_triples(sampler, families):
    ctx = next((fam.ctx for fam in families if isinstance(fam, vr.WeierstrassShifted)), None)

    def draw(rng, n):
        rows = _reference_points(sampler, rng, n, 3 if sampler.unconstrained else 2, ctx)
        return [tuple(row) if sampler.unconstrained else (*row, -(row[0] + row[1])) for row in rows]

    admit = _clear_by_distance(families, sampler.effective_pole_radius)
    return _reference_draws(sampler.seed, sampler.count, draw, admit)


_SQUARE, _HEXAGONAL = el.from_periods(2.0, 2.0j), el.from_periods(2.0, 2.0 * cmath.exp(1j * math.pi / 3))
_WS = vr.WeierstrassShifted
# (families, unconstrained)
_SAMPLER_CASES = {
    "one family three times": ((_WS(_SQUARE, 0.3j),) * 3, False),
    "three shifts on one context": ([_WS(_SQUARE, s) for s in (0j, 0.3, 0.2j)], False),
    "two contexts and an exponential": ([_WS(_SQUARE, 0.1), _WS(_HEXAGONAL), vr.Exponential()], False),
    "unconstrained": ([_WS(_SQUARE), _WS(_SQUARE, 0.5 + 0.5j), _WS(_HEXAGONAL)], True),
    "rank one": ((_WS(el.from_invariants(3.0, 1.0), 0.2),) * 3, False),
    "rank zero": ((_WS(el.from_invariants(0.0, 0.0)),) * 3, False),
}


def _reference_sigma_draws(ctx, count, seed):
    pole = max(ctx.pole_tol, 0.04 * ctx.lambda_min) if ctx.reduced else 0.04
    w1, w2 = _reference_frame(ctx)

    def draw(rng, n):
        st_ = rng.uniform(-0.35, 0.35, (n, 3, 2))
        return (st_[..., 0] * w1 + st_[..., 1] * w2).tolist()

    def admit(_, abc):
        a, b, c = abc
        return not (el.lattice_distance(ctx, np.array([a, b, c, a - b, b - c, c - a, a + b + c])) <= pole).any()

    return _reference_draws(seed, count, draw, admit)


class TestDrawsDoNotMove:
    """The samplers against their rule written out, bit for bit: round k draws from `stream_uniforms(seed, k, n)`."""

    @pytest.mark.parametrize("radius", [None, 0.3, 0.9], ids=["default", "rounded-point", "3x3-search"])
    @pytest.mark.parametrize("case", _SAMPLER_CASES)
    def test_triples(self, case, radius, monkeypatch):
        # with lambda_min = 2, a radius of 0.3 is decided by the rounded lattice
        # point and 0.9 by the 3x3 search; both force redraws
        families, unconstrained = _SAMPLER_CASES[case]
        if radius is not None:
            _pole_radius(monkeypatch, radius)
        sampler = vr.TripleSampler(seed=11, count=40, unconstrained=unconstrained)
        assert list(sampler.triples(families)) == _reference_triples(sampler, families)

    @pytest.mark.parametrize("name", ["square_ctx", "generic_ctx", "normal_form_ctx", "rank_one_ctx", "degenerate_ctx"])
    def test_grid_scan_rows(self, name, request, monkeypatch):
        ctx = request.getfixturevalue(name)
        fam, sampler, grid = vr.WeierstrassShifted(ctx, 0.1j), vr.TripleSampler(seed=5, margin=0.2), 6
        # every grid point clears this radius, and about half the partners do not
        _pole_radius(monkeypatch, 0.3)
        rows, _ = vr.grid_scan(fam, sampler, grid, 1e-8)
        ticks = sampler.margin + (1.0 - 2.0 * sampler.margin) * np.arange(grid) / (grid - 1)
        w1, w2 = _reference_frame(ctx)
        xs = (np.repeat(ticks, grid) * w1 + np.tile(ticks, grid) * w2).tolist()
        clear = _clear_by_distance((fam,) * 3, sampler.effective_pole_radius)

        def draw(rng, n):
            return [row[0] for row in _reference_points(sampler, rng, n, 1, ctx)]

        ys = _reference_draws(sampler.seed, len(xs), draw, lambda i, y: clear(i, (xs[i], y, -(xs[i] + y))))
        assert [(x, y) for x, y, _ in rows] == list(zip(xs, ys))

    @pytest.mark.parametrize("pole_tol", [None, 0.3, 0.32], ids=["default", "0.3", "0.32"])
    def test_sigma_identity_scan_admits_by_the_lattice_distance_rule(self, pole_tol, batches):
        # a pole_tol of 0.3 lambda_min and more sends clear_of_lattice to the 3x3 search
        ctx = el.from_periods(2.0, 0.7 + 2.1j)
        if pole_tol is not None:
            ctx = replace(ctx, pole_tol=2.0 * pole_tol)
        vr.sigma_identity_scan(ctx, count=30, seed=8)
        [(points, _, _)] = batches
        assert [tuple(row) for row in points.tolist()] == [tuple(abc) for abc in _reference_sigma_draws(ctx, 30, 8)]

    @pytest.mark.parametrize("name", ["rank_one_ctx", "degenerate_ctx"])
    def test_sigma_identity_scan_below_rank_two_draws_in_the_frame(self, name, request, batches):
        ctx = request.getfixturevalue(name)
        vr.sigma_identity_scan(ctx, count=30, seed=8)
        [(points, _, _)] = batches
        assert [tuple(row) for row in points.tolist()] == [tuple(abc) for abc in _reference_sigma_draws(ctx, 30, 8)]


def _reference_report(points, residuals, faults, tol, note):
    """The report rule in one path: count and skip faulted rows; the worst kept one is the first non-finite, else largest."""
    kept = faults == 0
    r = residuals[kept].tolist()
    if not r:
        raise SamplerExhausted("no admissible triples survived evaluation")
    counts = np.bincount(faults, minlength=len(vr._SKIPS)).tolist()
    details = {"skipped": len(faults) - len(r)}
    details.update((f"skipped_{why}", n) for why, n in sorted(zip(vr._SKIPS[1:], counts[1:])) if n)
    worst = int(np.argmax(np.where(kept, np.where(np.isfinite(residuals), residuals, np.inf), -np.inf)))
    mx = float(residuals[worst])
    return vr.ResidualReport(
        len(r), mx, sum(r) / len(r), tuple(points[worst].tolist()), tol, mx <= tol, note, details
    )


class TestReportPaths:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1e-14, 2e-14, 1e-9, 1.0, math.inf, math.nan]) | st.floats(0.0, 10.0),
                st.sampled_from([0, 0, 0, vr._POLE, vr._GUARD]),
            ),
            min_size=1,
            max_size=8,
        ),
        clean=st.booleans(),
    )
    def test_a_report_without_faults_is_the_general_one(self, rows, clean):
        # ties, nan and inf residuals, with and without faulted rows; repr
        # compares every field, floats to the last bit and nan included
        residuals = np.array([r for r, _ in rows])
        faults = np.array([0 if clean else f for _, f in rows])
        points = np.arange(3 * len(rows)).reshape(-1, 3) * (1.0 + 0.5j)
        try:
            want = _reference_report(points, residuals, faults, 1e-8, "n")
        except SamplerExhausted:
            with pytest.raises(SamplerExhausted):
                vr._report(points, residuals, faults, 1e-8, "n")
            return
        assert repr(vr._report(points, residuals, faults, 1e-8, "n")) == repr(want)


class TestInvarianceClosure:
    def test_transformed_triples_still_solve(self, square_ctx):
        base = vr.WeierstrassShifted(square_ctx, 0j)
        rng = np.random.default_rng(21)
        for alpha, beta, delta in [(2.0, 0.3, 1.0), (0.5 - 1.1j, 2.0j, 1.0), (3.0, 0.0, 1.0)]:
            for _ in range(20):
                s, t = rng.uniform(0.1, 0.9, 2)
                x = complex(s * 2 + t * 2j)
                s, t = rng.uniform(0.1, 0.9, 2)
                y = complex(s * 2 + t * 2j)
                z = -(x + y)
                if el.lattice_distance(square_ctx, z) < 0.1:
                    continue
                jets = [base.jets(delta * p, 1) for p in (x, y, z)]
                tj = [transform_jets(j, alpha, beta, delta) for j in jets]
                assert vr.relative(vr.det3(*tj), vr.det3_terms(*tj)) <= 1e-8

    def test_delta_rescaling_through_homogeneity(self, square_ctx):
        # delta != 1 folds into the invariants: pe(2z; g2, g3) scales onto
        # pe(z; 16 g2, 64 g3) / 4, so the rescaled context must also solve
        g2, g3 = square_ctx.invariants.g2, square_ctx.invariants.g3
        scaled = el.from_invariants(16.0 * g2, 64.0 * g3)
        fam = vr.WeierstrassShifted(scaled, 0j)
        rep = vr.scan(fam, fam, fam, vr.TripleSampler(seed=6, count=100), tol=1e-8)
        assert rep.passed


class TestScaleFreeResiduals:
    # the equation holds for alpha f(delta x) + beta applied to all three
    # functions, so no verdict may depend on the unit of f or of x

    @pytest.mark.parametrize("tau", [1j, 0.35 + 1.05j, 3j])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2, 1e4])
    def test_theorem_verdicts_do_not_depend_on_the_lattice_scale(self, scale, tau):
        ctx = el.from_periods(scale, scale * tau)
        w1, w2 = ctx.periods.omega1, ctx.periods.omega2
        sampler = vr.TripleSampler(seed=5, count=100)
        for frac, solves in ((1.0 / 3.0, True), (0.49, False)):
            fam = vr.WeierstrassShifted(ctx, frac * w1)
            assert vr.scan(fam, fam, fam, sampler, tol=1e-8).passed == solves
        for gammas, solves in (((0.2 * w1, 0.3 * w2, 0.8 * w1 + 0.7 * w2), True), ((0.2 * w1, 0.3 * w2, 0j), False)):
            assert vr.theorem2_shift_test(ctx, *gammas, sampler).passed == solves

    @pytest.mark.parametrize("invariants", [(12.0, 8.0), (3.0, 1.0)], ids=["node", "rank-one"])
    def test_reports_below_rank_two_do_not_depend_on_the_scale(self, invariants):
        # the lattice 2^e (pi/k)Z has invariants 2^(-4e) g2, 2^(-6e) g3, and every draw is a fraction of its
        # frame: the scaled draws are the unit ones times 2^e, and the evaluators are homogeneous to the bit
        def reports(e):
            g2, g3 = invariants
            ctx = el.from_invariants(math.ldexp(g2, -4 * e), math.ldexp(g3, -6 * e))
            w, sampler = ctx.reduced[0], vr.TripleSampler(seed=3, count=100)
            out = [vr.theorem2_shift_test(ctx, 0.1 * w, 0.3 * w, f * w, sampler) for f in (-0.4, -0.3)]
            out.append(vr.sigma_identity_scan(ctx, count=100, seed=3))
            out.append(vr.grid_scan(vr.WeierstrassShifted(ctx, w / 3.0), sampler, 6, 1e-8)[1])
            unscaled = [tuple(complex(math.ldexp(p.real, -e), math.ldexp(p.imag, -e)) for p in r.worst_triple)
                        for r in out]
            return [(r.passed, r.samples, r.max_residual) for r in out], unscaled

        unit = reports(0)
        assert [verdict for verdict, _, _ in unit[0]] == [True, False, True, True]
        assert [samples for _, samples, _ in unit[0]] == [100, 100, 100, 36]
        for e in (-40, 40):
            assert reports(e) == unit

    @pytest.mark.parametrize("alpha", [1e-7, 1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_exponential_non_solution_fails_at_every_amplitude(self, alpha):
        # e^x, e^2y, e^3z: the residual is one number whatever alpha
        def report(alpha):
            fams = [vr.Exponential(alpha=alpha, delta=d) for d in (1.0, 2.0, 3.0)]
            return vr.scan(*fams, vr.TripleSampler(seed=0, count=200), tol=1e-8)

        rep = report(alpha)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(report(1.0).max_residual, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1e-7, 1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_constant_case_verdicts_at_every_amplitude(self, alpha):
        sampler = vr.TripleSampler(seed=2, count=100, unconstrained=True)
        e1, e2 = vr.Exponential(alpha=alpha), vr.Exponential(alpha=alpha, delta=2.0)
        mismatch = vr.constant_case_check(e1, e2, sampler)
        assert not mismatch.passed and mismatch.max_residual > 1e-3
        assert vr.constant_case_check(e1, e1, sampler).passed

    def test_residual_is_homogeneous_in_alpha_and_delta(self, square_ctx):
        base = vr.WeierstrassShifted(square_ctx, 0.37)
        jets = [base.jets(p, 1) for p in (0.3 + 0.4j, 1.1 + 0.2j, -1.4 - 0.6j)]
        unit = vr.relative(vr.det3(*jets), vr.det3_terms(*jets))
        assert unit > 1e-3
        for alpha, delta in ((2.0**-30, 1.0), (2.0**40, 2.0**-5), (1.0, 2.0**20)):
            scaled = [transform_jets(j, alpha, 0j, delta) for j in jets]
            assert vr.relative(vr.det3(*scaled), vr.det3_terms(*scaled)) == unit


class TestSigmaQuotient:
    def test_repeated_argument_vanishes(self, square_ctx):
        a, b = 0.5 + 0.3j, 1.1 + 0.9j
        assert vr.sigma_quotient(square_ctx, a, a, b) == 0

    def test_lattice_sum_vanishes(self, square_ctx):
        a, b = 0.5 + 0.3j, 1.1 + 0.9j
        c = (2.0 + 2.0j) - a - b  # a+b+c = omega1 + omega2
        value = vr.sigma_quotient(square_ctx, a, b, c)
        ja, jb, jc = (el.jets(square_ctx, t, 1) for t in (a, b, c))
        assert abs(value) <= 1e-8 * vr.det3_terms(ja, jb, jc)

    def test_antisymmetry_exact(self, square_ctx):
        a, b, c = 0.5 + 0.3j, 1.1 + 0.9j, 0.4 + 1.3j
        assert vr.sigma_quotient(square_ctx, a, b, c) == -vr.sigma_quotient(square_ctx, b, a, c)

    def test_a_quotient_beyond_the_float_range_raises(self, square_ctx):
        # the quotient grows as 1/a^3 near the pole: about 7e301 at a = 1e-100, about 1e331 at 1e-110
        assert abs(vr.sigma_quotient(square_ctx, 1e-100, 0.3, 0.2j)) < 1e302
        with pytest.raises(FloatOverflow, match="a sigma quotient exceeds the float range"):
            vr.sigma_quotient(square_ctx, 1e-110, 0.3, 0.2j)

    def test_matches_det3(self, square_ctx):
        rep = vr.sigma_identity_scan(square_ctx, count=200, seed=0, tol=1e-8)
        assert rep.passed

    def test_tall_lattice_scan_passes(self):
        # deep in the cell of a tall lattice pe is flat and det3 cancels far
        # below its terms; measured against their sizes it still agrees
        rep = vr.sigma_identity_scan(el.from_periods(1.0, 8j), count=50, seed=1)
        assert rep.passed and rep.max_residual <= 1e-12

    def test_tall_lattice_shifted_scan_scores_every_draw(self):
        # products of sigma values that underflow there are scaled, not skipped
        rep = shifted_det_vs_sigma_scan(
            el.from_periods(1.0, 8j), 0.9 + 0.9j, vr.TripleSampler(seed=7, count=100)
        )
        assert rep.details == {"skipped": 0}
        assert rep.passed and rep.max_residual <= 1e-12

    def test_det_and_quotient_agree_at_zero_shift(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        rep = shifted_det_vs_sigma_scan(square_ctx, 0j, vr.TripleSampler(seed=1, count=100))
        # both sides vanish here and agree to the round-off of det3's terms
        assert rep.samples == 100
        assert rep.passed

    def test_shifted_residual_floor_agrees(self, square_ctx):
        rep = shifted_det_vs_sigma_scan(
            square_ctx, 0.37 * 2.0 / 3.0, vr.TripleSampler(seed=8, count=200), tol=1e-6
        )
        assert rep.passed

    def test_shifted_scan_scores_every_draw(self, square_ctx):
        # sigma evaluates on the whole plane: shifted points far out are scored
        rep = shifted_det_vs_sigma_scan(
            square_ctx, 0.9 + 0.9j, vr.TripleSampler(seed=0, count=200)
        )
        assert rep.samples == 200
        assert rep.details == {"skipped": 0}
        assert rep.passed


class TestTheorem2:
    def test_zero_shifts_pass(self, square_ctx):
        rep = vr.theorem2_shift_test(
            square_ctx, 0j, 0j, 0j, vr.TripleSampler(seed=0, count=200)
        )
        assert rep.details["expected"] == "pass"
        assert rep.passed

    def test_nonzero_lattice_sum_passes(self, square_ctx):
        w1, w2 = square_ctx.periods.omega1, square_ctx.periods.omega2
        g1, g2_, g3_ = 0.2 * w1, 0.3 * w2, (w1 + w2) - 0.2 * w1 - 0.3 * w2
        rep = vr.theorem2_shift_test(square_ctx, g1, g2_, g3_, vr.TripleSampler(seed=1, count=200))
        assert rep.details["expected"] == "pass"
        assert rep.passed
        assert rep.details["gamma3_equivalent"] == -(g1 + g2_)

    def test_non_lattice_sum_fails(self, square_ctx):
        w1, w2 = square_ctx.periods.omega1, square_ctx.periods.omega2
        rep = vr.theorem2_shift_test(square_ctx, 0.2 * w1, 0.3 * w2, 0j, vr.TripleSampler(seed=2, count=200))
        assert rep.details["expected"] == "fail"
        assert not rep.passed

    @pytest.mark.parametrize(
        "invariants, s, expected",
        [
            ((12.0, 8.0), 0.0, "pass"),
            ((12.0, 8.0), math.pi / math.sqrt(3.0), "pass"),
            ((12.0, 8.0), -2.0 * math.pi / math.sqrt(3.0), "pass"),
            ((12.0, 8.0), 0.1, "fail"),
            ((12.0, 8.0), 0.5j, "fail"),
            ((12.0, 8.0), math.pi / (2.0 * math.sqrt(3.0)), "fail"),
            ((12.0, 8.0), 1e-3, "fail"),
            ((3.0, 1.0), 0.0, "pass"),
            ((3.0, 1.0), math.pi / math.sqrt(1.5), "pass"),
            ((3.0, 1.0), 0.2, "fail"),
            ((0.0, 0.0), 0.0, "pass"),
            ((0.0, 0.0), 0.1, "fail"),
            ((0.0, 0.0), 1e-4, "fail"),
            ((0.0, 0.0), 0.3j, "fail"),
        ],
    )
    def test_degenerations_decide_by_their_lattice(self, invariants, s, expected):
        # the poles of k^2/sin^2(kz) - k^2/3 are (pi/k)Z, those of 1/z^2 are {0}
        ctx = el.from_invariants(*invariants)
        sampler = vr.TripleSampler(seed=2, count=200)
        rep = vr.theorem2_shift_test(ctx, 0.3, 0.5, -0.8 + s, sampler)
        assert rep.details["expected"] == expected
        assert rep.passed == (expected == "pass")

    def test_borderline_shift_is_indeterminate(self, square_ctx):
        w1 = square_ctx.periods.omega1
        eps = el.LATTICE_TOL
        assert vr.theorem_shift_expectation(square_ctx, 3.0 * eps * w1) == "indeterminate"
        assert vr.theorem_shift_expectation(square_ctx, 0.1 * eps * w1) == "pass"


class TestDerivedDeterminants:
    def test_wp_triple_columns_123(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        rep = vr.derived_determinant_check(fam, fam, fam, 1, 2, 3, vr.TripleSampler(seed=0, count=150))
        assert rep.passed and rep.tol == 1e-7

    def test_wp_triple_differentiated_12(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        rep = vr.derived_determinant_check(fam, fam, fam, 1, 2, None, vr.TripleSampler(seed=1, count=150))
        assert rep.passed

    @pytest.mark.parametrize("name", ["square_ctx", "generic_ctx"])
    def test_repeated_column_is_the_zero_polynomial(self, name, request):
        # columns (1, 2, 2) expand to 0: every triple scores 0, none faults
        fam = vr.WeierstrassShifted(request.getfixturevalue(name), 0j)
        rep = vr.derived_determinant_check(fam, fam, fam, 1, 2, 2, vr.TripleSampler(seed=3, count=40))
        assert rep.passed and rep.max_residual == 0 and rep.samples == 40

    @pytest.mark.parametrize("k, l, s", [(1, 5, None), (2, 5, None), (4, 5, 6), (3, 4, 6)])
    @pytest.mark.parametrize("ctx", [el.from_periods(2.0, 2.0j), el.from_periods(2.0, 0.7 + 2.1j), el.from_invariants(3, 1)],
                             ids=["square", "generic", "rank-one"])
    def test_wp_solves_the_determinants_of_sixth_jets(self, k, l, s, ctx):
        fam = vr.WeierstrassShifted(ctx, 0j)
        assert vr._derived_determinant(k, l, s)[1] == 6
        rep = vr.derived_determinant_check(fam, fam, fam, k, l, s, vr.TripleSampler(seed=4, count=60))
        assert rep.passed and rep.max_residual <= 1e-14

    def test_exponential_triple(self):
        fam = vr.Exponential()
        rep = vr.derived_determinant_check(
            fam, fam, fam, 1, 2, None, vr.TripleSampler(seed=2, count=150), tol=1e-10
        )
        assert rep.passed


class TestFactfun:
    def test_exponential_control(self):
        fam = vr.Exponential()
        rep = vr.factfun_check(fam, vr.TripleSampler(seed=9, count=150), h_step=2e-2, tol=1e-9)
        assert rep.passed

    def test_wp_zero_shift(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        rep = vr.factfun_check(fam, vr.TripleSampler(seed=10, count=80), h_step=1e-2, tol=1e-6)
        assert rep.passed

    def test_wp_bad_shift_floor(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0.2)
        rep = vr.factfun_check(fam, vr.TripleSampler(seed=11, count=80), h_step=1e-2, tol=1e-6)
        assert not rep.passed
        assert rep.max_residual > 1e-3

    def test_invariants_only_context(self, normal_form_ctx):
        # the AGM lattice: triples are drawn on it and the stencil guard keeps clear of it
        fam = vr.WeierstrassShifted(normal_form_ctx, 0j)
        sampler = vr.TripleSampler(count=20)
        rep = vr.factfun_check(fam, sampler)
        assert rep.passed
        assert rep.samples + rep.details["skipped"] == 20


class TestConstantCase:
    def test_matched_exponentials(self):
        fam = vr.Exponential()
        rep = vr.constant_case_check(fam, fam, vr.TripleSampler(seed=0, count=200, unconstrained=True))
        assert rep.passed

    def test_zero_function_anything(self):
        rep = vr.constant_case_check(
            vr.Constant(0j),
            vr.Exponential(delta=2.0),
            vr.TripleSampler(seed=1, count=100, unconstrained=True),
        )
        assert rep.max_residual == 0.0

    def test_mismatched_rates_fail(self):
        rep = vr.constant_case_check(
            vr.Exponential(),
            vr.Exponential(delta=2.0),
            vr.TripleSampler(seed=2, count=100, unconstrained=True),
        )
        assert not rep.passed
        assert rep.max_residual > 1e-3


class TestEmptyRequests:
    def test_sigma_identity_scan_count_zero(self, square_ctx):
        with pytest.raises(ValueError, match="count"):
            vr.sigma_identity_scan(square_ctx, count=0)

    def test_grid_scan_count_zero(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        with pytest.raises(ValueError, match="count"):
            vr.grid_scan(fam, vr.TripleSampler(count=0), 0, 1e-8)

    def test_scan_count_zero(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        with pytest.raises(ValueError, match="count"):
            vr.scan(fam, fam, fam, vr.TripleSampler(count=0), 1e-8)


# -- batched checks against test-local scalar references ---------------------------

CONTEXTS = ["square_ctx", "hex_ctx", "generic_ctx"]


@pytest.fixture
def batches(monkeypatch):
    """(points, residuals, faults) of every batch a sampled check scores through `_score`."""
    seen = []
    score = vr._score

    def spy(evaluate, x, y, z):
        residuals, faults = score(evaluate, x, y, z)
        seen.append((np.column_stack((x, y, z)), residuals, faults))
        return residuals, faults

    monkeypatch.setattr(vr, "_score", spy)
    return seen


def scalar_det_vs_sigma(ctx, a, b, c):
    """det3 on scalar jets against the quotient of scalar sigma values, plainly multiplied."""
    (f, fp), (g, gp), (h, hp) = (el.jets(ctx, p, 1) for p in (a, b, c))
    s1, s2, s3, s4, sa, sb, sc = (el.sigma(ctx, p) for p in (a + b + c, a - b, b - c, c - a, a, b, c))
    quotient = 2.0 * s1 * s2 * s3 * s4 / (sa * sb * sc) ** 3
    det = (g - f) * hp - (gp - fp) * h + (f * gp - g * fp)
    return abs(det - quotient) / sum(abs(t) for t in (g * hp, f * hp, gp * h, fp * h, f * gp, g * fp))


def scalar_derived(poly, fam, x, y, order):
    fv, gv = fam.jets(x, order), fam.jets(y, order)
    return abs(jp.evaluate(poly, fv, gv)) / max(jp.evaluate(poly, fv, gv, absolute=True), 1e-100)


def scalar_factfun(fam, x, y, z, h):
    """The operator by nested scalar differences, one antiderivative call per stencil value."""

    def S(a, b):
        Fa, Fb, Fc = (fam.antiderivative(t) for t in (a, b, -(a + b)))
        return Fa * Fb + Fb * Fc + Fc * Fa

    def operator(h):
        def mixed(a, b):
            return (S(a + h, b + h) - S(a + h, b - h) - S(a - h, b + h) + S(a - h, b - h)) / (4.0 * h * h)

        return (mixed(x + h, y) - mixed(x - h, y) - mixed(x, y + h) + mixed(x, y - h)) / (2.0 * h)

    value = (4.0 * operator(h / 2.0) - operator(h)) / 3.0
    jets = [fam.jets(t, 1) for t in (x, y, z)]
    return abs(value) / (max(1.0, *(abs(j[0]) for j in jets)) * max(1.0, *(abs(j[1]) for j in jets)))


class TestBatchedChecks:
    @pytest.mark.parametrize("name", CONTEXTS)
    def test_sigma_gap_matches_scalar(self, name, request):
        ctx = request.getfixturevalue(name)
        w1, w2 = ctx.periods.omega1, ctx.periods.omega2
        st = np.random.default_rng(20).uniform(-0.35, 0.35, (3, 80, 2))
        a, b, c = st[..., 0] * w1 + st[..., 1] * w2
        gaps, faults = vr._score(vr._det_vs_sigma, ctx, a, b, c)
        assert not faults.any()
        for i, triple in enumerate(zip(a.tolist(), b.tolist(), c.tolist())):
            assert abs(gaps[i] - scalar_det_vs_sigma(ctx, *triple)) <= 1e-12

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_shifted_sigma_scan_matches_scalar(self, name, request, batches):
        ctx = request.getfixturevalue(name)
        shift = 0.37 * ctx.periods.omega1
        shifted_det_vs_sigma_scan(ctx, shift, vr.TripleSampler(seed=21, count=60), tol=1e-6)
        [(points, gaps, faults)] = batches
        assert not faults.any()
        for (x, y, z), gap in zip(points.tolist(), gaps.tolist()):
            assert abs(gap - scalar_det_vs_sigma(ctx, x + shift, y + shift, z + shift)) <= 1e-12

    def test_sigma_gap_faults_where_the_denominator_vanishes(self, square_ctx):
        a, b, c = np.array([0.5 + 0.3j, 2.0 + 0j]), np.array([0.2j] * 2), np.array([0.7] * 2)
        gaps, faults = vr._score(vr._det_vs_sigma, square_ctx, a, b, c)
        assert faults.tolist() == [0, vr._POLE] and math.isfinite(gaps[0])

    @pytest.mark.parametrize("name", CONTEXTS)
    @pytest.mark.parametrize("s", [3, None])
    def test_derived_matches_scalar(self, name, s, request, batches):
        fam = vr.WeierstrassShifted(request.getfixturevalue(name), 0j)
        vr.derived_determinant_check(fam, fam, fam, 1, 2, s, vr.TripleSampler(seed=22, count=40))
        poly = jp.abc_det(1, 2, s) if s is not None else jp.build_addet(1, 2)
        order = max(poly.jet_order("f"), poly.jet_order("g"), 1)
        [(points, residuals, faults)] = batches
        assert not faults.any()
        for (x, y, _), r in zip(points.tolist(), residuals.tolist()):
            assert abs(r - scalar_derived(poly, fam, x, y, order)) <= 1e-12

    @pytest.mark.parametrize("name", CONTEXTS)
    @pytest.mark.parametrize("third", [0.0, 1.0 / 3.0])
    def test_factfun_matches_scalar(self, name, third, request, batches):
        ctx = request.getfixturevalue(name)
        fam = vr.WeierstrassShifted(ctx, third * ctx.periods.omega1)
        vr.factfun_check(fam, vr.TripleSampler(seed=23, count=30), h_step=1e-2)
        [(points, residuals, faults)] = batches
        assert (faults != vr._POLE).all()
        for (x, y, z), r, fault in zip(points.tolist(), residuals.tolist(), faults.tolist()):
            if fault != vr._GUARD:
                assert abs(r - scalar_factfun(fam, x, y, z, 1e-2)) <= 1e-8

    @pytest.mark.parametrize("fam", [vr.Exponential(0.5, 1.0, 0.7 - 0.2j), vr.Linear(1.5, 0.5j), vr.Constant(2.0)], ids=["exp", "linear", "constant"])
    def test_closed_form_families_match_scalar(self, fam, batches):
        vr.factfun_check(fam, vr.TripleSampler(seed=24, count=30), h_step=2e-2, tol=1e-9)
        vr.derived_determinant_check(fam, fam, fam, 1, 2, None, vr.TripleSampler(seed=25, count=30), tol=1e-10)
        (points, residuals, faults), (dpoints, dresiduals, dfaults) = batches
        assert not faults.any() and not dfaults.any()
        for (x, y, z), r in zip(points.tolist(), residuals.tolist()):
            assert abs(r - scalar_factfun(fam, x, y, z, 2e-2)) <= 1e-8
        poly = jp.build_addet(1, 2)
        order = max(poly.jet_order("f"), poly.jet_order("g"), 1)
        for (x, y, _), r in zip(dpoints.tolist(), dresiduals.tolist()):
            assert abs(r - scalar_derived(poly, fam, x, y, order)) <= 1e-12

    @pytest.mark.parametrize("fam", [vr.Exponential(2.0, 0.5j, 1.0 - 0.5j), vr.Linear(1.5 - 1j, 2.0), vr.Constant(0.7 + 0.1j)], ids=["exp", "linear", "constant"])
    def test_array_jets_and_antiderivative_match_scalar(self, fam):
        x = np.random.default_rng(26).uniform(-1.0, 1.0, (30, 2)).view(complex)[:, 0]
        values = fam.jets(x, 5)
        F = fam.antiderivative(x)
        assert not np.isnan(values[0]).any() and len(values) == 6
        for i, xi in enumerate(x.tolist()):
            assert [v[i] for v in values] == pytest.approx(fam.jets(xi, 5), rel=1e-15, abs=1e-15)
            assert F[i] == pytest.approx(fam.antiderivative(xi), rel=1e-15)

    def test_shifted_wp_antiderivative_is_nan_at_poles(self, square_ctx):
        fam = vr.WeierstrassShifted(square_ctx, 0.5)
        F = fam.antiderivative(np.array([-0.5 + 0j, 0.3 + 0.4j]))
        assert math.isnan(F[0].real) and F[1] == fam.antiderivative(0.3 + 0.4j)
        values = fam.jets(np.array([-0.5 + 0j, 0.3 + 0.4j]), 5)
        assert np.isnan(values[0]).tolist() == [True, False] and len(values) == 6


# lattice coordinates on a 0.01 grid: lattice points (where the quotient is
# nan) come up, but nothing so close to one that the quotient overflows
_coords = st.integers(min_value=-130, max_value=130).map(lambda k: k / 100.0)
_points = st.lists(st.tuples(_coords, _coords), min_size=3, max_size=3)


class TestSigmaQuotientArrays:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_points, min_size=1, max_size=12))
    def test_exact_antisymmetry_and_zero(self, square_ctx, rows):
        coords = np.array(rows)
        a, b, c = (coords[:, i, 0] * 2.0 + coords[:, i, 1] * 2.0j for i in range(3))
        q = vr.sigma_quotient(square_ctx, a, b, c)
        for other in (vr.sigma_quotient(square_ctx, b, a, c), vr.sigma_quotient(square_ctx, a, c, b),
                      vr.sigma_quotient(square_ctx, c, b, a)):
            assert np.array_equal(q, -other, equal_nan=True)
        for zero in (vr.sigma_quotient(square_ctx, a, a, c), vr.sigma_quotient(square_ctx, a, b, b)):
            assert ((zero == 0) | np.isnan(zero)).all()
        on_lattice = [el.lattice_distance(square_ctx, p) == 0 for p in (a, c)]
        assert np.array_equal(np.isnan(vr.sigma_quotient(square_ctx, a, a, c)), on_lattice[0] | on_lattice[1])

    def test_scalar_call_matches_the_array(self, square_ctx):
        a, b, c = 0.5 + 0.3j, 1.1 + 0.9j, 0.4 + 1.3j
        assert vr.sigma_quotient(square_ctx, a, b, c) == vr.sigma_quotient(square_ctx, *(np.array([p]) for p in (a, b, c)))[0]
        with pytest.raises(PoleProximity):
            vr.sigma_quotient(square_ctx, 2.0, b, c)


# -- each admitted point evaluated once; a faulted one skipped and counted ----------------


class TestEvaluatedOnce:
    @pytest.mark.parametrize("name", CONTEXTS)
    def test_sigma_identity_scan_skips_and_counts_a_faulted_triple(self, name, request, monkeypatch, batches):
        ctx = request.getfixturevalue(name)
        clean = vr.sigma_identity_scan(ctx, count=60, seed=3)
        [(points, residuals, faults)] = batches
        assert clean.details == {"skipped": 0} and not faults.any()
        chosen, gap = points[7, 0], vr._det_vs_sigma

        def faulting(ctx, a, b, c):
            value, scale, faults = gap(ctx, a, b, c)
            return value, scale, np.where(a == chosen, vr._POLE, faults)

        monkeypatch.setattr(vr, "_det_vs_sigma", faulting)
        rep = vr.sigma_identity_scan(ctx, count=60, seed=3)
        # nothing is redrawn: the same triples and residuals, with the chosen one skipped
        (again, again_residuals, again_faults) = batches[1]
        others = np.arange(60) != 7
        assert np.array_equal(again, points) and np.array_equal(again_residuals, residuals)
        assert np.flatnonzero(again_faults).tolist() == [7]
        assert rep.details == {"skipped": 1, "skipped_PoleProximity": 1} and rep.samples == 59
        assert rep.max_residual == residuals[others].max()
        assert rep.mean_residual == sum(residuals[others].tolist()) / 59

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_grid_scan_skips_and_counts_a_faulted_triple(self, name, request, monkeypatch):
        fam = vr.WeierstrassShifted(request.getfixturevalue(name), 0j)
        _pole_radius(monkeypatch, 0.3)
        run = lambda: vr.grid_scan(fam, vr.TripleSampler(seed=2, margin=0.2), 6, 1e-8)  # noqa: E731
        clean_rows, clean = run()
        assert clean.details == {"skipped": 0} and clean.samples == len(clean_rows) == 36
        chosen, res = clean_rows[9][1], vr.residual

        def faulting(ff, fg, fh, x, y, z=None):
            r, faults = res(ff, fg, fh, x, y, z)
            return r, np.where(y == chosen, vr._POLE, faults)

        monkeypatch.setattr(vr, "residual", faulting)
        rows, rep = run()
        # the faulted triple has no row; every other row is as it was
        assert rows == clean_rows[:9] + clean_rows[10:]
        assert rep.details == {"skipped": 1, "skipped_PoleProximity": 1} and rep.samples == 35
        assert rep.max_residual == max(r for _, _, r in rows)

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_grid_scan_rows_match_points_scored_alone(self, name, request):
        ctx = request.getfixturevalue(name)
        fam = vr.WeierstrassShifted(ctx, 0.37 * ctx.periods.omega1)
        rows, rep = vr.grid_scan(fam, vr.TripleSampler(seed=2), 8, 1e-8)
        assert len(rows) == rep.samples == 64
        for x, y, r in rows:
            alone, faults = vr.residual(fam, fam, fam, np.array([x]), np.array([y]))
            assert faults[0] == 0 and alone[0] == r

    def test_draws_are_evaluated_in_one_call(self, square_ctx, monkeypatch):
        calls, gap = [], vr._det_vs_sigma
        monkeypatch.setattr(vr, "_det_vs_sigma", lambda ctx, *abc: calls.append(len(abc[0])) or gap(ctx, *abc))
        vr.sigma_identity_scan(square_ctx, count=50, seed=4)
        assert calls == [50]

    def test_stacked_residual_matches_per_family_calls(self, square_ctx, monkeypatch):
        fams = [vr.WeierstrassShifted(square_ctx, s) for s in (0j, 0.3 + 0.1j, -0.7j)]
        x, y = np.random.default_rng(27).uniform(-1.5, 1.5, (2, 40, 2)).view(complex)[..., 0]
        x[0] = 2.0  # on the lattice: a pole of the first family
        z = -(x + y)
        calls, jets = [], el.jets
        monkeypatch.setattr(el, "jets", lambda ctx, p, order: calls.append(np.shape(p)) or jets(ctx, p, order))
        r, faults = vr.residual(*fams, x, y, z)
        assert calls == [(3, 40)]
        for families in (fams, [fams[0], vr.Exponential(delta=0.5j), fams[2]]):
            r, faults = vr.residual(*families, x, y, z)
            per_family = [fam.jets(p, 1) for fam, p in zip(families, (x, y, z))]
            want = vr.relative(vr.det3(*per_family), vr.det3_terms(*per_family))
            assert np.array_equal(r, want, equal_nan=True)
            assert np.array_equal(faults, vr._pole_faults(*(j[0] for j in per_family)))
            assert faults[0] == vr._POLE and not faults[1:].any()

    def test_derived_takes_one_stacked_call(self, square_ctx, monkeypatch):
        fam = vr.WeierstrassShifted(square_ctx, 0.2j)
        calls, jets = [], el.jets
        monkeypatch.setattr(el, "jets", lambda ctx, p, order: calls.append(np.shape(p)) or jets(ctx, p, order))
        rep = vr.derived_determinant_check(fam, fam, fam, 1, 2, None, vr.TripleSampler(seed=5, count=30))
        assert rep.passed and calls == [(2, 30)]

    def test_factfun_evaluates_22_points_per_triple_in_one_call(self, square_ctx, monkeypatch):
        seen, anti = [], vr.WeierstrassShifted.antiderivative
        monkeypatch.setattr(vr.WeierstrassShifted, "antiderivative", lambda self, x: seen.append(x) or anti(self, x))
        rep = vr.factfun_check(vr.WeierstrassShifted(square_ctx, 0j), vr.TripleSampler(seed=23, count=30))
        [points] = seen
        assert rep.details.get("skipped_PoleProximity", 0) == 0 and points.shape == (22, rep.samples)
        assert all(len(set(column)) == 22 for column in points.T.tolist())

    @pytest.mark.parametrize(
        "residuals, worst",
        [([1e-14, 2e-14, 2e-14], 1), ([1e-14, math.nan, 3.0, math.inf], 1), ([1e-14, math.inf, math.nan], 1)],
    )
    def test_worst_is_the_first_non_finite_else_the_first_largest(self, residuals, worst):
        triples = np.arange(3 * len(residuals)).reshape(-1, 3) * 1j
        rep = vr._report(triples, np.array(residuals), np.zeros(len(residuals), int), 1e-8, "")
        assert rep.worst_triple == tuple(triples[worst].tolist())
        assert rep.mean_residual == sum(residuals) / len(residuals) or not math.isfinite(rep.mean_residual)

    def test_faulted_rows_are_counted_not_scored(self):
        triples = np.arange(12).reshape(-1, 3) * 1j
        faults = np.array([vr._POLE, 0, vr._GUARD, 0])
        rep = vr._report(triples, np.array([math.nan, 2e-14, 1.0, 1e-14]), faults, 1e-8, "")
        assert rep.passed and rep.samples == 2 and rep.worst_triple == tuple(triples[1].tolist())
        assert rep.details == {"skipped": 2, "skipped_PoleProximity": 1, "skipped_guard": 1}
        with pytest.raises(SamplerExhausted):
            vr._report(triples, np.zeros(4), np.full(4, vr._POLE), 1e-8, "")


class TestTracerContract:
    # perfbench/tracing.py wraps `verifier.residual` by its module name and
    # `TripleSampler.triples` as a generator, and reads a span of each

    def test_scan_calls_residual_once_per_batch(self, square_ctx, monkeypatch):
        calls, res = [], vr.residual
        monkeypatch.setattr(vr, "residual", lambda *a: calls.append(len(a[3])) or res(*a))
        fam = vr.WeierstrassShifted(square_ctx, 0j)
        vr.scan(fam, fam, fam, vr.TripleSampler(seed=1, count=40), 1e-8)
        vr.theorem2_shift_test(square_ctx, 0j, 0j, 0j, vr.TripleSampler(seed=2, count=30))
        assert calls == [40, 30]

    def test_triples_is_a_generator(self):
        assert inspect.isgeneratorfunction(vr.TripleSampler.triples)


class TestFactfunStep:
    @pytest.mark.parametrize("scale", [1.0, 0.1, 0.01, 1e-3])
    def test_default_step_scales_with_the_lattice(self, scale):
        # an absolute step of 1e-2 guards every triple out of a cell of size 0.01
        ctx = el.from_periods(scale, scale * (0.3 + 1.1j))
        rep = vr.factfun_check(vr.WeierstrassShifted(ctx, 0j), vr.TripleSampler(seed=3, count=40))
        assert rep.passed and rep.samples >= 35
        assert rep.note == f"h = {5e-3 * ctx.lambda_min:g}, one Richardson level"

    def test_default_step(self, square_ctx, hex_ctx, generic_ctx, degenerate_ctx):
        for ctx in (square_ctx, hex_ctx, generic_ctx):
            assert vr.factfun_step(vr.WeierstrassShifted(ctx)) == pytest.approx(1e-2, rel=1e-15)
        assert vr.factfun_step(vr.WeierstrassShifted(degenerate_ctx)) == 1e-2
        assert vr.factfun_step(vr.Exponential()) == 1e-2
        rank_one = el.from_invariants(3.0, 1.0)
        assert vr.factfun_step(vr.WeierstrassShifted(rank_one)) == 5e-3 * rank_one.lambda_min
