"""Tests for sounding code generation and correlation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import sequences as seqs
from chansounder.sequences import (
    CodeSequence,
    bpsk_modulate,
    generate_glfsr,
    generate_gold,
    generate_golay_a,
    generate_golay_pair,
    generate_ls,
    ls_codeset_with_gap,
    periodic_correlation,
)


def direct_periodic_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Brute-force circular correlation oracle: sum_n a[n] * b[(n+k) % N]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = len(a)
    return np.array([float(np.dot(a, np.roll(b, -k))) for k in range(n)])


def direct_aperiodic_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Brute-force linear correlation oracle over lags -(N-1)..N-1."""
    n = len(a)
    out = []
    for lag in range(-(n - 1), n):
        total = 0.0
        for i in range(n):
            j = i + lag
            if 0 <= j < n:
                total += a[i] * b[j]
        out.append(total)
    return np.array(out)


class TestGlfsr:
    def test_degree8_mask0_seed1_has_length_255(self):
        code = generate_glfsr(degree=8, mask=0, seed=1)
        assert code.length == 255
        assert code.family == "GLFSR"

    def test_zero_seed_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            generate_glfsr(degree=8, mask=0, seed=0)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            generate_glfsr(degree=1)
        with pytest.raises(ValueError):
            generate_glfsr(degree=33)

    def test_degree3_two_valued_autocorrelation(self):
        code = generate_glfsr(degree=3, mask=0, seed=1)
        assert code.length == 7
        corr = direct_periodic_correlation(code.chips, code.chips)
        assert corr[0] == 7
        assert np.all(corr[1:] == -1)

    @pytest.mark.parametrize("degree", range(3, 13))
    def test_msequence_autocorrelation_identity(self, degree):
        code = generate_glfsr(degree=degree)
        n = code.length
        assert n == 2**degree - 1
        corr = direct_periodic_correlation(code.chips, code.chips)
        assert corr[0] == n
        assert np.all(corr[1:] == -1)

    def test_chips_are_bipolar(self):
        code = generate_glfsr(degree=8)
        assert set(np.unique(code.chips)) <= {-1, 1}


class TestGold:
    def test_default_degree8_length_255(self):
        code = generate_gold(degree=8)
        assert code.length == 255
        assert code.family == "GOLD"

    def test_preferred_pair_three_valued_cross_correlation(self):
        # Degree 5 preferred pair: cross-correlation values must stay inside
        # {-1, -2^ceil((5+2)/2) - 1, 2^ceil((5+2)/2) - 1} = {-1, -9, 7}.
        code = generate_gold(degree=5, shift=3)
        allowed = {-1.0, -9.0, 7.0}
        for poly in seqs.DEFAULT_GOLD_PAIRS[5]:
            parent_bits = seqs._fibonacci_mseq_bits(poly, 5)
            parent = (1 - 2 * parent_bits).astype(np.int8)
            corr = direct_periodic_correlation(code.chips, parent)
            assert set(np.round(corr, 9)) <= allowed

    def test_shift_out_of_range(self):
        with pytest.raises(ValueError, match="shift"):
            generate_gold(degree=5, shift=31)

    def test_non_primitive_polynomial_rejected(self):
        # x^8 + 1 = (x + 1)^8 is reducible.
        with pytest.raises(ValueError, match="primitive"):
            generate_gold(degree=8, poly_a=0x101, poly_b=0x187)

    def test_chips_are_bipolar(self):
        code = generate_gold(degree=6, shift=5)
        assert set(np.unique(code.chips)) <= {-1, 1}

    @pytest.mark.parametrize("degree", sorted(seqs.DEFAULT_GOLD_PAIRS))
    def test_default_pairs_are_primitive_and_preferred(self, degree):
        poly_a, poly_b = seqs.DEFAULT_GOLD_PAIRS[degree]
        assert seqs.is_primitive(poly_a, degree)
        assert seqs.is_primitive(poly_b, degree)
        a = (1 - 2 * seqs._fibonacci_mseq_bits(poly_a, degree)).astype(float)
        b = (1 - 2 * seqs._fibonacci_mseq_bits(poly_b, degree)).astype(float)
        cc = direct_periodic_correlation(a, b)
        values = set(np.round(cc).astype(int).tolist())
        t = 2 ** ((degree + 2) // 2) + 1
        if degree % 4 == 0:
            # no preferred pairs exist at these degrees
            assert not values <= {-1, -t, t - 2}
        else:
            assert values <= {-1, -t, t - 2}


class TestGolay:
    def test_complementary_pair_sum_is_delta(self):
        ga, gb = generate_golay_pair(128)
        s = direct_aperiodic_correlation(ga.astype(float), ga.astype(float))
        s = s + direct_aperiodic_correlation(gb.astype(float), gb.astype(float))
        mid = 127
        assert s[mid] == pytest.approx(2 * 128)
        off_peak = np.delete(s, mid)
        assert np.max(np.abs(off_peak)) == pytest.approx(0.0)

    @pytest.mark.parametrize("length", [32, 64, 128])
    def test_supported_lengths(self, length):
        code = generate_golay_a(length)
        assert code.length == length
        assert set(np.unique(code.chips)) <= {-1, 1}

    def test_unsupported_length(self):
        with pytest.raises(ValueError, match="unsupported"):
            generate_golay_a(100)

    def test_periodic_sidelobes_worse_than_msequence(self):
        code = generate_golay_a(128)
        corr = direct_periodic_correlation(code.chips, code.chips)
        assert np.max(np.abs(corr[1:])) > 1


class TestLs:
    def test_zero_correlation_zone_before_ifw_removal(self):
        codes = ls_codeset_with_gap(4)
        a = codes[0].astype(float)
        gap = np.sum(codes[0] == 0)
        corr = direct_aperiodic_correlation(a, a)
        mid = len(a) - 1
        for lag in range(1, gap + 1):
            assert corr[mid + lag] == pytest.approx(0.0)
            assert corr[mid - lag] == pytest.approx(0.0)

    def test_codeset_cross_correlation_zero_in_zone(self):
        codes = ls_codeset_with_gap(4)
        a, b = codes[0].astype(float), codes[1].astype(float)
        gap = np.sum(codes[0] == 0)
        corr = direct_aperiodic_correlation(a, b)
        mid = len(a) - 1
        for lag in range(-gap, gap + 1):
            assert corr[mid + lag] == pytest.approx(0.0)

    def test_emitted_code_excludes_window(self):
        code = generate_ls(4)
        with_gap = ls_codeset_with_gap(4)[0]
        assert code.length == np.sum(with_gap != 0)
        assert set(np.unique(code.chips)) <= {-1, 1}

    def test_order_below_minimum(self):
        with pytest.raises(ValueError, match="order"):
            generate_ls(2)


class TestBpskModulate:
    def test_one_sample_per_chip_has_null_imaginary(self):
        code = generate_glfsr(degree=8)
        stream = bpsk_modulate(code, samples_per_chip=1)
        assert len(stream) == 255
        assert stream.dtype == np.float64  # real: Q is zero

    def test_hold_semantics(self):
        code = CodeSequence(np.array([1, -1, -1, 1]), "GLFSR")
        stream = bpsk_modulate(code, samples_per_chip=2)
        expected = [1, 1, -1, -1, -1, -1, 1, 1]
        assert np.array_equal(stream, expected)

    def test_zero_samples_per_chip_rejected(self):
        code = generate_glfsr(degree=3)
        with pytest.raises(ValueError):
            bpsk_modulate(code, samples_per_chip=0)

    @pytest.mark.parametrize(
        "code",
        [
            generate_glfsr(degree=5),
            generate_gold(degree=5, shift=7),
            generate_golay_a(32),
            generate_ls(3),
        ],
        ids=["glfsr", "gold", "golay", "ls"],
    )
    def test_sign_demodulation_recovers_chips(self, code):
        stream = bpsk_modulate(code, samples_per_chip=3)
        recovered = np.sign(stream.reshape(-1, 3).mean(axis=1))
        assert np.array_equal(recovered.astype(np.int8), code.chips)


class TestPeriodicCorrelation:
    def test_glfsr255_autocorrelation_profile(self):
        code = generate_glfsr(degree=8)
        prof = periodic_correlation(code, code)
        assert prof.peak_value == pytest.approx(255.0)
        assert np.allclose(prof.values[1:], -1.0, atol=1e-9)
        assert prof.max_sidelobe == pytest.approx(1.0)
        assert prof.peak_to_sidelobe_db == pytest.approx(20 * np.log10(255), abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            periodic_correlation(generate_glfsr(degree=4), generate_glfsr(degree=5))

    @pytest.mark.parametrize(
        "code",
        [
            generate_glfsr(degree=8),
            generate_gold(degree=8),
            generate_golay_a(128),
            generate_ls(5),
        ],
        ids=["glfsr", "gold", "golay", "ls"],
    )
    def test_peak_equals_length_for_every_family(self, code):
        prof = periodic_correlation(code, code)
        assert prof.peak_value == pytest.approx(code.length)

    @settings(max_examples=30, deadline=None)
    @given(
        chips=st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=64),
    )
    def test_fft_matches_direct_sum(self, chips):
        code = CodeSequence(np.array(chips, dtype=np.int8), "GLFSR")
        prof = periodic_correlation(code, code)
        direct = direct_periodic_correlation(code.chips, code.chips)
        assert np.allclose(prof.values, direct, rtol=1e-9, atol=1e-9)

    def test_glfsr_ratio_beats_other_families(self):
        # The selection criterion behind using the m-sequence as the main
        # sounding code: best peak-to-max-sidelobe ratio under periodic
        # autocorrelation.
        ratios = {}
        for name, code in {
            "glfsr": generate_glfsr(degree=8),
            "gold": generate_gold(degree=8),
            "golay": generate_golay_a(128),
            "ls": generate_ls(5),
        }.items():
            ratios[name] = periodic_correlation(code, code).peak_to_sidelobe_db
        assert ratios["glfsr"] > ratios["gold"]
        assert ratios["glfsr"] > ratios["golay"]
        assert ratios["glfsr"] > ratios["ls"]


class TestSequenceFiles:
    def test_round_trip(self, tmp_path):
        code = generate_glfsr(degree=6)
        path = tmp_path / "seq.txt"
        seqs.write_sequence(code, path)
        back = seqs.read_sequence(path)
        assert np.array_equal(back.chips, code.chips)

    @pytest.mark.parametrize(
        "text, error",
        [("1\nx\n-1\n", "could not convert"), ("1\n0\n-1\n", "-1 or \\+1")],
        ids=["not-an-integer", "not-a-chip"],
    )
    def test_bad_file_is_an_error_naming_it(self, tmp_path, text, error):
        path = tmp_path / "seq.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=error) as info:
            seqs.read_sequence(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_file_is_one_signed_integer_per_line(self, tmp_path):
        code = generate_glfsr(degree=3)
        path = tmp_path / "seq.txt"
        seqs.write_sequence(code, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 7
        assert all(line in ("1", "-1") for line in lines)
