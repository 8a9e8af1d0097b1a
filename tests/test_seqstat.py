import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from virodyne.errors import EmptyInput, LengthMismatch, NoData, ParseError
from virodyne.seqstat import (
    Alphabet,
    FastaRecord,
    build_alignment,
    column_distribution,
    hotspots,
    parse_fasta,
    positional_entropy,
)

from conftest import make_alignment


class TestParseFasta:
    def test_minimal(self):
        recs = parse_fasta(">a\nACGT\n", Alphabet.NUCLEOTIDE)
        assert recs == [FastaRecord("a", "ACGT")]

    def test_multiline_body_concatenates(self):
        recs = parse_fasta(">x\nACG\nTAC\nGT\n", Alphabet.NUCLEOTIDE)
        assert recs[0].sequence == "ACGTACGT"

    def test_lowercase_and_rna_normalized(self):
        recs = parse_fasta(">r\nacgu\n", Alphabet.NUCLEOTIDE)
        assert recs[0].sequence == "ACGT"

    def test_gaps_and_ambiguity_preserved(self):
        recs = parse_fasta(">g\nA-CN\n", Alphabet.NUCLEOTIDE)
        assert recs[0].sequence == "A-CN"

    def test_amino_alphabet(self):
        recs = parse_fasta(">p\nMKQX-*\n", Alphabet.AMINO)
        assert recs[0].sequence == "MKQX-*"

    def test_invalid_character_position(self):
        with pytest.raises(ParseError) as err:
            parse_fasta(">a\nACGT\n>b\nAC!T\n", Alphabet.NUCLEOTIDE)
        assert err.value.line == 4
        assert err.value.column == 3

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_fasta("", Alphabet.NUCLEOTIDE)
        with pytest.raises(EmptyInput):
            parse_fasta("\n\n", Alphabet.NUCLEOTIDE)

    def test_data_before_header(self):
        with pytest.raises(ParseError):
            parse_fasta("ACGT\n>a\nAC\n", Alphabet.NUCLEOTIDE)

    def test_accepts_file_handle(self):
        recs = parse_fasta(io.StringIO(">h\nACG\n"), Alphabet.NUCLEOTIDE)
        assert recs[0].identifier == "h"

    def test_round_trip(self):
        text = ">one\nACGT\nACGT\n>two\nAC-T\nNNGT\n"
        assert parse_fasta(text, Alphabet.NUCLEOTIDE) == [
            FastaRecord("one", "ACGTACGT"), FastaRecord("two", "AC-TNNGT")]

    @given(st.lists(st.text(alphabet="ACGT-N", min_size=1, max_size=80),
                    min_size=1, max_size=8), st.integers(1, 90))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, seqs, width):
        recs = [FastaRecord(f"id{i}", s) for i, s in enumerate(seqs)]
        text = "".join(f">{r.identifier}\n" + "".join(
            r.sequence[i:i + width] + "\n" for i in range(0, len(r.sequence), width))
            for r in recs)
        assert parse_fasta(text, Alphabet.NUCLEOTIDE) == recs


class TestBuildAlignment:
    def test_equal_rows(self):
        aln = make_alignment(["ACGT", "AAGT", "ACGA"])
        assert aln.n_sequences == 3
        assert aln.length == 4

    def test_strict_length_mismatch_names_offender(self):
        recs = parse_fasta(">a\nACGT\n>bad\nACGTA\n", Alphabet.NUCLEOTIDE)
        with pytest.raises(LengthMismatch) as err:
            build_alignment(recs, Alphabet.NUCLEOTIDE)
        assert "bad" in err.value.offenders

    def test_non_strict_truncates_with_count(self):
        recs = parse_fasta(">a\nACGTACGTAC\n>b\nACGTACGTACGT\n",
                           Alphabet.NUCLEOTIDE)
        aln = build_alignment(recs, Alphabet.NUCLEOTIDE, strict_length=False)
        assert aln.length == 10
        assert aln.truncated_rows == 1

    def test_mask_marks_gaps_and_ambiguity(self):
        aln = make_alignment(["A-GN"])
        assert aln.mask.tolist() == [[True, False, True, False]]

    def test_matrix_holds_ascii_codes(self):
        aln = make_alignment(["acgu", "N-TT"])
        assert aln.matrix.dtype == np.uint8
        assert aln.matrix.tobytes() == b"ACGTN-TT"


class TestEntropy:
    def test_constant_column_zero_bits(self):
        aln = make_alignment(["A", "A", "A", "A"])
        profile = positional_entropy(aln)
        assert profile.entropies[0] == 0.0

    def test_uniform_column_two_bits(self):
        aln = make_alignment(["A", "C", "G", "T"])
        assert positional_entropy(aln).entropies[0] == pytest.approx(2.0)

    def test_75_25_column(self):
        aln = make_alignment(["A", "A", "A", "C"])
        assert positional_entropy(aln).entropies[0] == pytest.approx(
            0.8112781244591328, abs=1e-12)

    def test_gaps_excluded_from_counts(self):
        aln = make_alignment(["A", "A", "-", "N"])
        profile = positional_entropy(aln)
        assert profile.entropies[0] == 0.0
        assert profile.n_effective[0] == 2

    def test_all_masked_column_reported_missing(self):
        aln = make_alignment(["-", "-"])
        profile = positional_entropy(aln)
        assert math.isnan(profile.entropies[0])
        assert not np.isfinite(profile.entropies).any()

    def test_pseudocount_smooths(self):
        aln = make_alignment(["A", "A", "A", "A"])
        smoothed = positional_entropy(aln, pseudocount=1.0)
        assert smoothed.entropies[0] > 0.0
        # pseudocount -> 0 converges to the raw profile
        tiny = positional_entropy(aln, pseudocount=1e-12)
        assert tiny.entropies[0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("pseudocount", [-1.0, math.nan, math.inf])
    def test_pseudocount_must_be_finite_and_non_negative(self, pseudocount):
        # At inf every probability is inf/inf = NaN, which the entropy sum
        # would drop, reading 0 bits in every column.
        aln = make_alignment(["ACGT", "AAGT"])
        with pytest.raises(ValueError, match="finite and >= 0"):
            positional_entropy(aln, pseudocount=pseudocount)
        with pytest.raises(ValueError, match="finite and >= 0"):
            column_distribution(aln, 1, pseudocount=pseudocount)

    def test_permutation_invariance(self):
        rows = ["ACGTAC", "AAGTAC", "ACCTAC", "ACGAAC"]
        a = positional_entropy(make_alignment(rows)).entropies
        b = positional_entropy(make_alignment(rows[::-1])).entropies
        assert np.array_equal(a, b)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        rows = ["".join(rng.choice(list("ACGT-N"), size=40)) for _ in range(12)]
        profile = positional_entropy(make_alignment(rows))
        ent = profile.entropies[np.isfinite(profile.entropies)]
        assert (ent >= 0).all()
        assert (ent <= 2.0 + 1e-12).all()

    def test_column_distribution_sums_to_one(self):
        aln = make_alignment(["ACGT", "AAGT", "ACGA"])
        for pos in range(1, 5):
            dist = column_distribution(aln, pos)
            assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NoData):
            column_distribution(make_alignment(["-"]), 1)

    def test_amino_entropy_bound(self):
        aln = make_alignment(["MKQ", "MAQ", "MCQ"], alphabet=Alphabet.AMINO)
        profile = positional_entropy(aln)
        assert profile.entropies.max() <= math.log2(21)


class TestHotspots:
    def test_all_zero_profile_threshold(self):
        profile = positional_entropy(make_alignment(["AAAA", "AAAA"]))
        assert hotspots(profile, min_entropy=0.1) == []

    def test_planted_uniform_column_top1(self):
        rows = ["AAAAXAAA".replace("X", b) for b in "ACGT"]
        profile = positional_entropy(make_alignment(rows))
        top = hotspots(profile, top_k=1)
        assert len(top) == 1
        assert top[0].position == 5

    def test_planted_three_hotspots_top3(self):
        bases = "ACGTACGT"
        cols = 100
        planted = {17, 42, 88}
        rows = []
        for i in range(8):
            row = ["A"] * cols
            for p in planted:
                row[p - 1] = bases[i]
            rows.append("".join(row))
        profile = positional_entropy(make_alignment(rows))
        top = hotspots(profile, top_k=3)
        assert {h.position for h in top} == planted

    def test_ties_break_by_ascending_index(self):
        rows = ["AC", "CA"]  # both columns have H = 1 bit
        profile = positional_entropy(make_alignment(rows))
        top = hotspots(profile, top_k=2)
        assert [h.position for h in top] == [1, 2]

    def test_top_k_clipped(self):
        profile = positional_entropy(make_alignment(["ACGT"]))
        assert len(hotspots(profile, top_k=99)) == 4

    def test_selector_exclusivity(self):
        profile = positional_entropy(make_alignment(["ACGT"]))
        with pytest.raises(ValueError):
            hotspots(profile)
        with pytest.raises(ValueError):
            hotspots(profile, top_k=1, min_entropy=0.5)
