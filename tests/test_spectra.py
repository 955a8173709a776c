import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochgibbs
from blochgibbs import spectra
from blochgibbs.errors import DomainError, QuadratureError
from blochgibbs.models import GibbsPoint, ModelKind, mean_energy, mean_polarization
from blochgibbs.oracles import DensityMatrix2
from blochgibbs.spectra import (asymptotic_relent, relative_entropy_numeric,
                                solve_maximin_beta, solve_stationary_point,
                                spectrum, spin_sum_polarization,
                                zeta_matrix_oracle)
from blochgibbs.verify import PAPER

LN2 = math.log(2.0)
SMALLEST_NORMAL = 2.2250738585072014e-308


class TestSpectrum:
    def test_n1_is_maximally_mixed(self):
        for beta in (0.2, 1.0, 9.0):
            table = spectrum(1, beta)
            assert len(table.entries) == 1
            assert table.entries[0].lam == pytest.approx(0.5, abs=1e-14)
            assert table.entries[0].multiplicity == 2

    def test_n2_hand_reduction(self):
        # lambda_{2,0} = (2+b)/(4(3/2+b)), lambda_{2,1} = b/(4(3/2+b))
        for beta in (0.4, 1.0, 3.0):
            table = spectrum(2, beta)
            assert table.entries[0].lam == \
                pytest.approx((2 + beta) / (4 * (1.5 + beta)), rel=1e-12)
            assert table.entries[1].lam == \
                pytest.approx(beta / (4 * (1.5 + beta)), rel=1e-12)
        t = spectrum(2, 1.0)
        assert t.entries[0].lam == pytest.approx(0.3, abs=1e-13)
        assert t.entries[1].lam == pytest.approx(0.1, abs=1e-13)
        assert [e.multiplicity for e in t.entries] == [3, 1]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.05, max_value=20.0))
    def test_trace_and_multiplicity_invariants(self, n, beta):
        table = spectrum(n, beta)
        assert table.trace() == pytest.approx(1.0, abs=1e-10)
        assert sum(e.multiplicity for e in table.entries) == 2**n
        for e in table.entries:
            assert e.lam > 0
            # multiplicity formula (n-2d+1)^2 C(n+1,d)/(n+1) is an integer
            assert e.multiplicity * (n + 1) == \
                (n - 2 * e.d + 1) ** 2 * math.comb(n + 1, e.d)

    def test_trace_n6(self):
        assert spectrum(6, 0.7).trace() == pytest.approx(1.0, abs=1e-12)

    def test_json_export_schema(self):
        doc = spectrum(3, 1.5).to_json_dict()
        assert set(doc) == {"n", "beta", "entries"}
        assert all(set(e) == {"d", "lambda", "multiplicity"}
                   for e in doc["entries"])

    def test_domain(self):
        with pytest.raises(DomainError):
            spectrum(0, 1.0)
        with pytest.raises(DomainError):
            spectrum(3, 0.0)

    @pytest.mark.parametrize("beta", (1e-10, 0.3, 1.0, 100.0))
    def test_largest_n_has_unit_trace(self, beta):
        table = spectrum(1028, beta)
        assert len(table.entries) == 515
        assert table.trace() == pytest.approx(1.0, abs=1e-10)

    def test_past_largest_n_raises_before_any_entry(self, monkeypatch):
        def no_entry(*args):
            raise AssertionError("an entry was built")

        monkeypatch.setattr(spectra, "_lambda_nd", no_entry)
        for fn in (spectrum, spin_sum_polarization):
            with pytest.raises(DomainError, match=r"n <= 1028.*double range"):
                fn(1029, 1.0)

    REF = json.loads((Path(__file__).resolve().parent / "ref"
                      / "spectrum_mpmath.json").read_text())["rows"]

    @staticmethod
    def _row_id(row):
        return f"n{row['n']}-b{row['beta']:g}"

    @pytest.mark.parametrize("row", REF, ids=_row_id)
    def test_lambdas_match_mpmath(self, row):
        # the closed form in mpmath (tests/ref/spectrum_mpmath.py), n up to
        # 1028 and beta from 2**-511 to 1e300
        table = spectrum(row["n"], row["beta"])
        assert len(table.entries) == len(row["lambda"])
        for e, want in zip(table.entries, map(float, row["lambda"])):
            if want >= SMALLEST_NORMAL:
                assert e.lam == pytest.approx(want, rel=5e-14, abs=0.0)
            else:
                assert abs(e.lam - want) <= 2e-321
        assert abs(table.trace() - 1.0) <= 1e-14

    # every seventh row: each n, and each beta at least once
    @pytest.mark.parametrize("row", REF[::7], ids=_row_id)
    def test_spin_sum_matches_mpmath(self, row):
        n = row["n"]
        with mp.workdps(30):
            want = mp.fsum(mp.mpf(n - 2 * d) / n * spectra._multiplicity(n, d)
                           * mp.mpf(lam) for d, lam in enumerate(row["lambda"]))
        assert abs(spin_sum_polarization(n, row["beta"]) - float(want)) <= 2e-15

    def test_largest_n_is_where_multiplicities_leave_doubles(self):
        n = spectra._MAX_SPECTRUM_N
        for d in range(n // 2 + 1):
            float(spectra._multiplicity(n, d))
        with pytest.raises(OverflowError):
            float(max(spectra._multiplicity(n + 1, d)
                      for d in range((n + 1) // 2 + 1)))


class TestSpinSum:
    def test_n1_fully_polarized(self):
        for beta in (0.3, 2.0):
            assert spin_sum_polarization(1, beta) == pytest.approx(1.0, abs=1e-13)

    def test_n2_value(self):
        assert spin_sum_polarization(2, 1.0) == pytest.approx(0.9, abs=1e-13)

    def test_in_unit_interval(self):
        for n in (3, 10, 51):
            for beta in (0.2, 1.0, 5.0):
                assert 0.0 <= spin_sum_polarization(n, beta) <= 1.0

    @pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
    def test_gap_halves_as_n_doubles(self, beta):
        exact = mean_polarization(GibbsPoint(ModelKind.COMPLEX, beta))
        gaps = [spin_sum_polarization(n, beta) - exact for n in (100, 200, 400)]
        assert abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])
        assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.3)
        assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.3)


class TestZetaOracle:
    def test_n1_is_half_identity(self):
        z = zeta_matrix_oracle(1, 2.0)
        assert np.max(np.abs(z - np.eye(2) / 2)) < 1e-10

    def test_n2_eigenvalues(self):
        z = zeta_matrix_oracle(2, 1.0)
        eig = np.sort(np.linalg.eigvalsh(z))
        assert np.max(np.abs(eig - np.array([0.1, 0.3, 0.3, 0.3]))) < 1e-6

    @pytest.mark.parametrize("n,beta", [(n, beta) for n in range(1, 9)
                                        for beta in (0.3, 0.5, 1.0, 5.0)])
    def test_matches_closed_form_spectrum(self, n, beta):
        z = zeta_matrix_oracle(n, beta)
        eig = np.sort(np.linalg.eigvalsh(z))
        table = spectrum(n, beta)
        want = np.sort(np.concatenate(
            [[e.lam] * e.multiplicity for e in table.entries]))
        assert np.max(np.abs(eig - want)) < 1e-6
        # the angular rule is exact; only the radial moments are numerical
        assert np.max(np.abs(eig - want)) < 1e-12
        assert np.trace(z).real == pytest.approx(1.0, abs=1e-8)
        assert np.all(eig >= 0)
        assert np.max(np.abs(z - z.conj().T)) < 1e-15

    @pytest.mark.parametrize("beta", (1e-8, 1e-5, 100.0))
    def test_edge_beta_matches_closed_form(self, beta):
        # the radial rule has a separate panel for the flat tail r ~ 1, so
        # small beta neither stalls the gate nor misses the mass near E = 0
        eig = np.sort(np.linalg.eigvalsh(zeta_matrix_oracle(3, beta)))
        want = np.sort(np.concatenate(
            [[e.lam] * e.multiplicity for e in spectrum(3, beta).entries]))
        assert np.max(np.abs(eig - want)) < 1e-12

    def test_hermitian(self):
        z = zeta_matrix_oracle(2, 0.8)
        assert np.max(np.abs(z - z.conj().T)) < 1e-15

    def test_domain(self):
        for n in (0, 11):
            with pytest.raises(DomainError):
                zeta_matrix_oracle(n, 1.0)

    @pytest.mark.parametrize("beta,tol", ((1e-300, 1e-13), (1e4, 2e-11)))
    def test_beta_domain_edges_match_closed_form(self, beta, tol):
        for n in (1, 3):
            eig = np.sort(np.linalg.eigvalsh(zeta_matrix_oracle(n, beta)))
            want = np.sort(np.concatenate(
                [[e.lam] * e.multiplicity for e in spectrum(n, beta).entries]))
            assert np.max(np.abs(eig - want)) < tol

    @pytest.mark.parametrize("beta", (2.0**-1022, 9.99e-301, 1.0001e4, 1e16, 1e100))
    def test_beta_outside_domain_names_the_oracle(self, beta):
        # below 1e-300 the radial range nears the double range; above 1e4
        # the partition function's error would pass 1e-11
        rho = DensityMatrix2(r=0.5, theta=0.3, phi=1.0)
        for call in (lambda: zeta_matrix_oracle(3, beta),
                     lambda: relative_entropy_numeric(rho, 2, beta)):
            with pytest.raises(DomainError) as info:
                call()
            assert "zeta_matrix_oracle beta" in str(info.value)
            assert repr(beta) in str(info.value)

    @staticmethod
    def _block_eigenvalues(zeta, n):
        # zeta is zero off the equal-weight blocks, so its eigenvalues are
        # those of the blocks
        minus = np.array([bin(i).count("1") for i in range(2 ** n)])
        return np.sort(np.concatenate([
            np.linalg.eigvalsh(zeta[np.ix_(minus == a, minus == a)])
            for a in range(n + 1)]))

    @pytest.mark.parametrize("n", (9, 10))
    def test_largest_n_matches_closed_form(self, n):
        for beta in (1e-10, 0.3, 1.0, 5.0, 100.0):
            zeta = zeta_matrix_oracle(n, beta)
            want = np.sort(np.concatenate(
                [[e.lam] * e.multiplicity for e in spectrum(n, beta).entries]))
            assert np.max(np.abs(self._block_eigenvalues(zeta, n) - want)) <= 1e-13
            assert np.array_equal(zeta, zeta.conj().T)

    def test_drift_gate_raises(self, monkeypatch):
        monkeypatch.setattr(spectra, "_DRIFT_TOL", 0.0)
        with pytest.raises(QuadratureError, match="still drifting"):
            zeta_matrix_oracle(3, 1.0)

    @pytest.mark.parametrize("n,beta", [(n, beta) for n in range(1, 6)
                                        for beta in (0.3, 1.0, 5.0)])
    def test_matches_explicit_kron_average(self, n, beta):
        # the same angular rule written out term by term: for each direction
        # u, V = P R(theta) P^dagger, and V^(x)n diag(m_k(i)) V^(x)n^dagger
        # from np.kron products, averaged over theta and phi
        # the oracle's radial gate stops at the 96-node level here
        coarse, moments = spectra._radial_moments(n, beta, (48, 96))
        assert np.max(np.abs(moments - coarse)) < spectra._DRIFT_TOL
        plus = np.array([n - bin(i).count("1") for i in range(2 ** n)])
        diag = np.diag(moments[plus])
        cos_theta, w_theta = np.polynomial.legendre.leggauss(n // 2 + 1)
        want = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for ct, w in zip(cos_theta, w_theta / 2.0):
            c, s = math.sqrt((1.0 + ct) / 2.0), math.sqrt((1.0 - ct) / 2.0)
            rot = np.array([[c, -s], [s, c]])
            for phi in 2.0 * math.pi * np.arange(n + 1) / (n + 1):
                p = np.diag([1.0, np.exp(1j * phi)])
                v = p @ rot @ p.conj().T
                v_n = np.ones((1, 1))
                for _ in range(n):
                    v_n = np.kron(v_n, v)
                want += w / (n + 1) * (v_n @ diag @ v_n.conj().T)
        assert np.max(np.abs(zeta_matrix_oracle(n, beta) - want)) < 1e-15

    @pytest.mark.parametrize("n,beta", [(n, beta) for n in range(1, 9)
                                        for beta in (1e-10, 0.3, 1.0, 100.0)])
    def test_cold_and_warm_calls_bit_identical(self, n, beta):
        spectra._gauss_legendre.cache_clear()
        spectra._radial_rule.cache_clear()
        spectra._spherical_design.cache_clear()
        cold = zeta_matrix_oracle(n, beta)
        assert np.array_equal(zeta_matrix_oracle(n, beta), cold)


class TestGaussLegendreRule:
    @pytest.mark.parametrize("nodes", (1, 2, 3, 4, 5, 48, 96, 192, 384))
    def test_equals_leggauss(self, nodes):
        x, w = spectra._gauss_legendre(nodes)
        want_x, want_w = np.polynomial.legendre.leggauss(nodes)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)

    def test_shared_arrays_are_read_only(self):
        for arr in spectra._gauss_legendre(96):
            with pytest.raises(ValueError):
                arr[0] = 0.0
            with pytest.raises(ValueError):
                arr += 1.0
        for got, want in zip(spectra._gauss_legendre(96),
                             np.polynomial.legendre.leggauss(96)):
            assert np.array_equal(got, want)

    def test_import_builds_no_rule(self):
        script = ("import blochgibbs.cli\n"
                  "from blochgibbs import spectra\n"
                  "print(spectra._gauss_legendre.cache_info().currsize)\n"
                  "print(spectra._radial_rule.cache_info().currsize)\n"
                  "print(spectra._spherical_design.cache_info().currsize)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(blochgibbs.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n0\n0\n"


class TestRadialRule:
    def test_shared_arrays_are_read_only(self):
        for split in (False, True):
            rule = spectra._radial_rule((48, 96), split)
            before = [arr.copy() for arr in rule[:4]]
            for arr in rule[:4]:
                with pytest.raises(ValueError):
                    arr[0] = 0
                with pytest.raises(ValueError):
                    arr *= 2
            for arr, want in zip(spectra._radial_rule((48, 96), split), before):
                assert np.array_equal(arr, want)

    @pytest.mark.parametrize("split", (False, True))
    def test_layout(self, split):
        # level by level, and within a level panel by panel
        panels = 2 if split else 1
        unit, weight, tail, edge, spans = spectra._radial_rule((48, 96), split)
        assert spans == ((0, 48 * panels), (48 * panels, 144 * panels))
        for nodes, (a, b) in zip((48, 96), spans):
            x, w = np.polynomial.legendre.leggauss(nodes)
            assert np.array_equal(unit[a:b], np.tile(x + 1.0, panels))
            assert np.array_equal(weight[a:b], np.tile(w, panels))
            assert np.array_equal(tail[a:b], np.repeat(np.arange(panels), nodes) == 1)
        assert np.array_equal(edge, np.where(tail, 6.0, 0.0))


class TestSphericalDesign:
    def test_shared_arrays_are_read_only(self):
        values, gather = spectra._spherical_design(3)
        before = values.copy(), gather.copy()
        for arr in (values, gather):
            with pytest.raises(ValueError):
                arr[0] = 0
            with pytest.raises(ValueError):
                arr += 1
        for arr, want in zip(spectra._spherical_design(3), before):
            assert np.array_equal(arr, want)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_real_and_zero_off_the_weight_blocks(self, n):
        # the phi average keeps exactly the entries whose basis states have
        # equal numbers of "-" factors: C(2n, n) of each 4^n, stored as the
        # upper triangle of each block, one value for (i, j) and (j, i)
        values, gather = spectra._spherical_design(n)
        size = (math.comb(2 * n, n) + 2 ** n) // 2
        assert values.dtype == np.float64 and gather.dtype == np.int32
        assert values.shape[1] - size in range(1, 5)
        assert not values[:, size:].any()
        minus = np.array([bin(i).count("1") for i in range(2 ** n)])
        on = minus[:, None] == minus
        assert np.count_nonzero(on) == math.comb(2 * n, n)
        g = gather.reshape(2 ** n, 2 ** n)
        assert np.array_equal(g, g.T)
        assert np.all(g[~on] == values.shape[1] - 1)
        assert np.array_equal(np.sort(g[np.triu(on)]), np.arange(size))
        zeta = zeta_matrix_oracle(n, 0.8)
        assert zeta.dtype == np.complex128
        assert not zeta[~on].any()
        assert np.array_equal(zeta, zeta.conj().T)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_block_is_exactly_symmetric(self, n):
        # the design written out as dense 2^n x 2^n matrices: each
        # equal-weight block of every C_(n,k) equals its transpose bit for
        # bit, so keeping one triangle loses nothing; for n <= 5 the stored
        # triangles are those of the dense design bit for bit
        minus = np.array([bin(i).count("1") for i in range(2 ** n)])
        cos_theta, w_theta = np.polynomial.legendre.leggauss(n // 2 + 1)
        dense = np.zeros((n + 1, 2 ** n, 2 ** n))
        for ct, w in zip(cos_theta, 0.5 * w_theta):
            c, s = math.sqrt(0.5 * (1.0 + ct)), math.sqrt(0.5 * (1.0 - ct))
            rot_n = np.ones((1, 1))
            for _ in range(n):
                rot_n = np.kron(rot_n, np.array([[c, -s], [s, c]]))
            for k in range(n + 1):
                cols = rot_n[:, minus == n - k]
                dense[k] += w * (cols @ cols.T)
        dense *= minus[:, None] == minus
        assert np.array_equal(dense, dense.transpose(0, 2, 1))
        values, gather = spectra._spherical_design(n)
        got, want = values[:, gather], dense.reshape(n + 1, -1)
        if n <= 5:
            assert np.array_equal(got, want)
        assert np.max(np.abs(got - want)) <= 1e-16

    def test_memory(self):
        # (C(2n, n) + 2^n) / 2 values per moment and a 4^n int32 index
        for n, limit in ((8, 1e6), (10, 17e6)):
            values, gather = spectra._spherical_design(n)
            assert values.nbytes + gather.nbytes <= limit


class TestZetaOracleBitsPin:
    PINS = json.loads((Path(__file__).resolve().parent / "ref"
                       / "zeta_oracle_bits.json").read_text())["pins"]

    @pytest.mark.parametrize("pin", PINS, ids=lambda p: f"n{p['n']}-b{p['beta']:g}")
    def test_reproduces_pinned_bits(self, pin):
        # tests/ref/zeta_oracle_bits.py: every entry as float.hex, n = 1..3
        # on both radial panel layouts
        zeta = zeta_matrix_oracle(pin["n"], pin["beta"])
        assert [float(v).hex() for v in zeta.real.ravel()] == pin["real"]
        assert [float(v).hex() for v in zeta.imag.ravel()] == pin["imag"]


class TestRelativeEntropy:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_mixed_state_closed_form(self, n):
        # rho^(x)n = I / 2^n, so the relative entropy is
        # -n ln 2 - 2^-n sum_d m_{n,d} ln lambda_{n,d}; the docstring's
        # bound (n = 10, not run here for its 1.4 s: 5.3e-15)
        mixed = DensityMatrix2(r=0.0, theta=0.0, phi=0.0)
        want = -n * LN2 - 2.0**-n * math.fsum(
            e.multiplicity * math.log(e.lam) for e in spectrum(n, 1.0).entries)
        got = relative_entropy_numeric(mixed, n, 1.0)
        assert got == pytest.approx(want, abs=1e-14)

    def test_mixed_state_n2_quoted_value(self):
        want = -2 * LN2 - 0.25 * (3 * math.log(0.3) + math.log(0.1))
        assert want == pytest.approx(0.0923319, abs=1e-6)
        assert relative_entropy_numeric(
            DensityMatrix2(r=0.0, theta=0.0, phi=0.0), 2, 1.0) == \
            pytest.approx(want, abs=1e-8)

    def test_mixed_state_n1_vanishes(self):
        mixed = DensityMatrix2(r=0.0, theta=0.0, phi=0.0)
        assert relative_entropy_numeric(mixed, 1, 3.0) == \
            pytest.approx(0.0, abs=1e-9)

    def test_near_pure_state_nonnegative(self):
        rho = DensityMatrix2(r=0.999999, theta=0.8, phi=1.0)
        for n in range(1, 9):
            assert relative_entropy_numeric(rho, n, 1.0) >= 0

    def test_rotation_invariance(self):
        # the averaged matrix is isotropic, so only r matters
        a = relative_entropy_numeric(DensityMatrix2(0.5, 0.3, 1.0), 2, 1.0)
        b = relative_entropy_numeric(DensityMatrix2(0.5, 2.0, 4.2), 2, 1.0)
        assert a == pytest.approx(b, abs=1e-9)


class TestAsymptoticRelent:
    def test_beta_derivative_vanishes_at_energy_condition(self):
        h = 1e-6
        exact = mean_energy(GibbsPoint(ModelKind.COMPLEX, 1.0))
        grad = (asymptotic_relent(1.0 + h, exact, 50)
                - asymptotic_relent(1.0 - h, exact, 50)) / (2 * h)
        assert abs(grad) < 1e-6

    def test_small_energy_limit_of_log_term(self):
        # the -artanh(Om)/Om piece tends to -1
        got = asymptotic_relent(1.0, 1e-8, 1)
        base = (1.5 * math.log(1) - 0.5 - 1.5 * LN2 + 1.0 * 1e-8
                + math.lgamma(1.0) - math.lgamma(2.5))
        assert got - base == pytest.approx(-1.0, abs=1e-7)

    def test_n_only_shifts_by_log(self):
        a = asymptotic_relent(0.7, 1.9, 10)
        b = asymptotic_relent(0.7, 1.9, 1000)
        assert b - a == pytest.approx(1.5 * math.log(100.0), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            asymptotic_relent(0.0, 1.0, 10)
        with pytest.raises(DomainError):
            asymptotic_relent(1.0, -1.0, 10)

    @pytest.mark.parametrize("beta", [1e-300, 1e-10, 0.457, 1.0, 1e4, 1e10,
                                      1e15, 1e300])
    def test_matches_mpmath(self, beta):
        # E = min(1, 1/beta) keeps beta E at most 1, so the gamma term
        # (-1036 at beta = 1e300) is not hidden under it
        energy, n = min(1.0, 1.0 / beta), 50
        with mp.workdps(60 + max(0, int(math.log10(beta)))):
            b, e = mp.mpf(beta), mp.mpf(energy)
            om = mp.sqrt(-mp.expm1(-e))
            terms = [1.5 * mp.log(n), -0.5, -1.5 * mp.log(2), b * e,
                     -(mp.log1p(om) + e / 2) / om,  # artanh(om) / om
                     mp.loggamma(b) - mp.loggamma(b + 1.5)]
            want, scale = mp.fsum(terms), mp.fsum(abs(t) for t in terms)
            err = abs(mp.mpf(asymptotic_relent(beta, energy, n)) - want)
        assert err <= 3e-16 * scale


class TestSolvers:
    def test_stationary_point_matches_quoted_values(self):
        beta, energy = solve_stationary_point()
        want, tol = PAPER["stationary_point_beta"]
        assert beta == pytest.approx(want, abs=tol)
        want, tol = PAPER["stationary_point_E"]
        assert energy == pytest.approx(want, abs=tol)

    def test_stationary_point_internal_consistency(self):
        beta, energy = solve_stationary_point()
        assert energy == pytest.approx(
            mean_energy(GibbsPoint(ModelKind.COMPLEX, beta)), abs=1e-8)
        h = 1e-6
        gb = (asymptotic_relent(beta + h, energy, 1000)
              - asymptotic_relent(beta - h, energy, 1000)) / (2 * h)
        ge = (asymptotic_relent(beta, energy + h, 1000)
              - asymptotic_relent(beta, energy - h, 1000)) / (2 * h)
        assert abs(gb) < 1e-6 and abs(ge) < 1e-6

    def test_maximin_matches_quoted_value(self):
        want, tol = PAPER["maximin_beta"]
        assert solve_maximin_beta() == pytest.approx(want, abs=tol)

    def test_maximin_residual(self):
        from blochgibbs.models import var_energy
        beta = solve_maximin_beta()
        resid = 2 * beta**3 * var_energy(GibbsPoint(ModelKind.COMPLEX, beta)) - 1
        assert abs(resid) < 1e-12

    def test_maximin_with_large_beta_variance_is_one_third(self):
        from blochgibbs.rootfind import brent
        root = brent(lambda b: 2 * b**3 * (1.5 / b**2) - 1.0, 0.1, 2.0)
        assert root == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_both_solutions_in_monotone_range(self):
        beta_st, _ = solve_stationary_point()
        beta_mx = solve_maximin_beta()
        assert 0.0 < beta_st <= 0.5
        assert 0.0 < beta_mx <= 0.5
