"""The vectorised genetic layer against its per-character reference.

`genetic_oracle` holds the implementations the fast code replaced. Every
property here demands exact agreement: the same records or the same error
(type, message, line, column), the same alignment codes and mask,
bit-identical entropies, distributions and Kimura matrices, the same codon
counts in the same order, the same hot-spot list and the same genetic code.
"""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genetic_oracle as oracle
from virodyne import seqstat
from virodyne.core import AMINO_STATES, CODON_AMINO, CODONS, translate
from virodyne.errors import (
    InvalidParams,
    InvalidWeights,
    NoData,
    ParseError,
    VirodyneError,
)
from virodyne.mutation import (
    KimuraParams,
    SubstitutionMode,
    _codon_column,
    _validate_weights,
    empirical_codon_weights,
    kimura_base_matrix,
    uniform_codon_weights,
)
from virodyne.seqstat import (
    Alphabet,
    EntropyProfile,
    FastaRecord,
    build_alignment,
    column_distribution,
    hotspots,
    parse_fasta,
    positional_entropy,
)

ALPHABETS = st.sampled_from([Alphabet.NUCLEOTIDE, Alphabet.AMINO])

# Characters whose case mapping or whitespace status trips a naive check:
# 'ß'.upper() is 'SS', 'ﬀ'.upper() is 'FF', 'ı'.upper() is 'I', 'ſ'.upper()
# is 'S', U+00A0 is whitespace, U+212A (Kelvin sign) is not 'K', U+0085
# (next line) and U+2003 (em space) are whitespace that ends no line here,
# '\0' is the parser's own mark for a rejected character, and 'ﬆ'.upper()
# is 'ST', a substring of the amino alphabet.
TRICKY = "ßﬀıſ\xa0K\x85\u2003\0ﬆ"
SEQ_CHARS = ("ACGTUNX-*acgtunx" + "DEFHIKLMPQRSVWYdefhiklmpqrsvwy"
             + " \t\r\x0b\x0c\x1c" + TRICKY + "!.1>")


def _clean_chars(alphabet):
    """Characters the parser accepts, slow path included ('ı' and 'ſ'
    uppercase into the amino alphabet; U+00A0 is whitespace)."""
    chars = alphabet.symbols + "-" + alphabet.ambiguity
    extra = "uU" if alphabet is Alphabet.NUCLEOTIDE else "ıſ"
    return chars + chars.lower() + extra + " \t\r\x0b\x0c\x1c\xa0"


def _bad_chars(alphabet):
    """Characters of SEQ_CHARS that the parser rejects in a sequence line."""
    accepted = alphabet.symbols + "-" + alphabet.ambiguity \
        + ("U" if alphabet is Alphabet.NUCLEOTIDE else "")
    return "".join(ch for ch in SEQ_CHARS
                   if not ch.isspace() and ch.upper() not in accepted)


@st.composite
def fasta_texts(draw, alphabet):
    """FASTA text with the parser's edge cases mixed in: blank and
    whitespace-only lines, '\\r\\n' endings, a lone '\\r' inside a line,
    data before the first header, empty and space-indented headers, headers
    with no sequence (mid-file and at EOF), a bad residue in any record and
    non-ASCII characters that upper-case into the alphabet."""
    clean = _clean_chars(alphabet)
    kinds = ["header"] * 3 + ["seq"] * 8 + ["blank", "lone cr"]
    if draw(st.booleans()):  # else most texts parse, many into several records
        kinds += ["odd header", "bad", "mixed"]
    lines = [">first"] if draw(st.integers(0, 9)) else []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(kinds))
        if kind == "header":
            lines.append(">" + draw(st.text(alphabet="ab1> \t\r" + TRICKY,
                                            min_size=1, max_size=6)))
        elif kind == "odd header":  # empty, whitespace-only or indented
            lines.append(draw(st.sampled_from([">", "> \t", ">\xa0", " >a",
                                               "\t>b"])))
        elif kind == "seq":
            lines.append(draw(st.text(alphabet=clean, min_size=1, max_size=30)))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0", " \r"])))
        elif kind == "lone cr":
            left, right = draw(st.text(alphabet=clean, max_size=8)), \
                draw(st.text(alphabet=clean, min_size=1, max_size=8))
            lines.append(left + "\r" + right)
        elif kind == "bad":
            line = draw(st.text(alphabet=clean, max_size=20))
            at = draw(st.integers(0, len(line)))
            lines.append(line[:at] + draw(st.sampled_from(_bad_chars(alphabet)))
                         + line[at:])
        else:
            lines.append(draw(st.text(alphabet=SEQ_CHARS, max_size=30)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


def _outcome(parse, text, alphabet):
    try:
        return ("ok", parse(text, alphabet))
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)
    except VirodyneError as exc:
        return (type(exc).__name__, str(exc))


def _assert_parse_matches_scan(text, alphabet):
    """parse_fasta on the text, on an in-memory handle and on a UTF-8 byte
    stream read as `open` reads a file (universal newlines: '\\r\\n' and a
    lone '\\r' end lines) returns what the per-character scan returns on the
    text that source reads."""
    def file_handle():
        return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")

    for source, seen in ((text, text), (io.StringIO(text), text),
                         (file_handle(), file_handle().read())):
        assert _outcome(parse_fasta, source, alphabet) == \
            _outcome(oracle.parse_fasta, seen, alphabet)


@given(st.data(), ALPHABETS)
@settings(max_examples=400, deadline=None)
def test_parse_matches_per_character_scan(data, alphabet):
    _assert_parse_matches_scan(data.draw(fasta_texts(alphabet)), alphabet)


# Each edge case of the generator at least once per run.
_EDGE_CASES = [
    "\n \n\t\n>a\nAC\n\n \nGT\n",          # blank and whitespace-only lines
    ">a\r\nAC\r\n>b\r\nGT\r\n",              # CRLF
    ">a\nA\rC\n>b\rc\nGT\n",                  # a lone CR inside a line
    "AC\n>a\nGT\n",                            # data before the first header
    ">a\nAC\n> \nGT\n",                        # an empty header
    ">a\n>b\nGT\n",                            # no sequence, mid-file
    ">a\nAC\n\n>b\n \n",                       # no sequence, at EOF
    ">a\nAC\n>b",                               # no sequence, at EOF without '\n'
    ">a\nAC\n >b\nGT\n",                       # a header indented with a space
    ">a\nAC\n>b\nGT\n>c\nGG\nG!T\n",            # a bad residue in the third record
    ">a\nAC\n>b\nGT\n\t\xa0G\n",               # non-ASCII whitespace, last record
    ">a\nMKſı\n>b\nMſſK\n",                    # non-ASCII that upper-cases to S, I
    ">a\nMK\n>b\nMKß\n",                       # 'ß'.upper() is 'SS': rejected
]


@pytest.mark.parametrize("alphabet", list(Alphabet))
@pytest.mark.parametrize("text", _EDGE_CASES)
def test_parse_edge_cases_match_per_character_scan(alphabet, text):
    _assert_parse_matches_scan(text, alphabet)


@pytest.mark.parametrize("alphabet", list(Alphabet))
@pytest.mark.parametrize("ch", list(TRICKY))
def test_parse_tricky_characters(alphabet, ch):
    _assert_parse_matches_scan(f">a\nAC{ch}A\n", alphabet)


def test_parse_rejects_eszett_for_amino():
    # Validation must run before upper-casing: 'ß'.upper() == 'SS'.
    with pytest.raises(ParseError) as err:
        parse_fasta(">a\nMKß\n", Alphabet.AMINO)
    assert (err.value.line, err.value.column) == (2, 3)


@st.composite
def alignments(draw):
    alphabet = draw(ALPHABETS)
    pool = alphabet.symbols + "-" + alphabet.ambiguity
    # Characters a hand-built record can hold that parsing never yields.
    if draw(st.booleans()):
        pool += "acx?ß"
    n = draw(st.integers(1, 9))
    length = draw(st.integers(1, 24))
    rows = [list(draw(st.text(alphabet=pool, min_size=length, max_size=length)))
            for _ in range(n)]
    for j in draw(st.sets(st.integers(0, length - 1), max_size=3)):
        for row in rows:
            row[j] = "-"
    strict = draw(st.booleans())
    if not strict:
        rows = [row + list(draw(st.text(alphabet=pool, max_size=4)))
                for row in rows]
    records = [FastaRecord(f"r{i}", "".join(row)) for i, row in enumerate(rows)]
    pseudocount = draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0])
                       | st.floats(0.0, 5.0))
    return records, alphabet, strict, pseudocount


@given(alignments(), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_row_blocked_counts_match_reference(case, block):
    # A block of `block` rows: most drawn alignments span several blocks,
    # some ending mid-block.
    records, alphabet, strict, pseudocount = case
    aln = build_alignment(records, alphabet, strict_length=strict)
    matrix, mask, _ = oracle.build_alignment(records, alphabet, strict)
    whole = seqstat._symbol_counts(aln.index, alphabet)
    with mock.patch.object(seqstat, "_COUNT_BLOCK", block):
        blocked = seqstat._symbol_counts(aln.index, alphabet)
        profile = positional_entropy(aln, pseudocount=pseudocount)
    assert blocked.tobytes() == whole.tobytes()
    assert np.array_equal(whole.sum(axis=0), mask.sum(axis=0))
    ent, n_eff = oracle.positional_entropy(matrix, mask, alphabet, pseudocount)
    assert profile.entropies.tobytes() == ent.tobytes()
    assert np.array_equal(profile.n_effective, n_eff)


@pytest.mark.parametrize("alphabet", list(Alphabet))
def test_deep_alignment_counts_match_reference(alphabet):
    # 70000 rows: column 1 holds one symbol all the way down, a count that
    # a single uint16 sum would wrap to 70000 - 65536; column 2 cycles
    # through every symbol, the gap and the ambiguity code.
    pool = alphabet.symbols + "-" + alphabet.ambiguity
    first = alphabet.symbols[0]
    records = [FastaRecord(f"r{i}", first + pool[i % len(pool)])
               for i in range(70000)]
    aln = build_alignment(records, alphabet)
    matrix, mask, _ = oracle.build_alignment(records, alphabet)
    want = oracle.symbol_counts(matrix, mask, alphabet)
    assert want[0, 0] == 70000
    assert seqstat._symbol_counts(aln.index, alphabet).tobytes() == want.tobytes()


def _expected_codes(matrix):
    return np.array([[ord(c) if ord(c) < 128 else ord("?") for c in row]
                     for row in matrix], dtype=np.uint8).reshape(matrix.shape)


def _codons(counter, *args):
    try:
        return list(counter(*args).items())
    except NoData as exc:
        return str(exc)


@given(alignments())
@settings(max_examples=300, deadline=None)
def test_alignment_counts_match_reference(case):
    records, alphabet, strict, pseudocount = case
    aln = build_alignment(records, alphabet, strict_length=strict)
    matrix, mask, truncated = oracle.build_alignment(records, alphabet, strict)

    assert aln.matrix.dtype == np.uint8
    assert np.array_equal(aln.matrix, _expected_codes(matrix))
    assert np.array_equal(aln.mask, mask)
    assert aln.truncated_rows == truncated

    profile = positional_entropy(aln, pseudocount=pseudocount)
    ent, n_eff = oracle.positional_entropy(matrix, mask, alphabet, pseudocount)
    assert profile.entropies.tobytes() == ent.tobytes()
    assert np.array_equal(profile.n_effective, n_eff)

    for pos in range(1, aln.length + 1):
        try:
            want = oracle.column_distribution(matrix, mask, alphabet, pos,
                                              pseudocount)
        except NoData:
            with pytest.raises(NoData):
                column_distribution(aln, pos, pseudocount)
            continue
        dist = column_distribution(aln, pos, pseudocount)
        assert dist.probabilities.tobytes() == want[0].tobytes()
        assert dist.effective_count == want[1]

    if alphabet is Alphabet.NUCLEOTIDE:
        for pos in range(1, aln.length // 3 + 1):
            assert _codons(_codon_column, aln, pos) == \
                _codons(oracle.codon_counts, matrix, mask, pos)


@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, 2.0, np.nan,
                                 np.inf, -np.inf]), max_size=30),
       st.integers(0, 35), st.sampled_from([0.0, 0.5, 1.0, 1.7, 3.0, np.nan]),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_hotspots_match_python_sort(values, top_k, min_entropy, by_count):
    ent = np.array(values, dtype=float)
    profile = EntropyProfile(entropies=ent, n_effective=np.zeros(ent.size, int),
                             alphabet=Alphabet.NUCLEOTIDE)
    if by_count:
        got = hotspots(profile, top_k=top_k)
        want = oracle.hotspots(ent, top_k=top_k)
    elif np.isnan(min_entropy):  # a NaN cut would select nothing; it raises
        with pytest.raises(ValueError):
            hotspots(profile, min_entropy=min_entropy)
        return
    else:
        got = hotspots(profile, min_entropy=min_entropy)
        want = oracle.hotspots(ent, min_entropy=min_entropy)
    assert [(h.position, repr(h.entropy)) for h in got] == \
        [(h.position, repr(h.entropy)) for h in want]


def test_uniform_codon_weights_match_loop():
    assert uniform_codon_weights().tobytes() == \
        oracle.uniform_codon_weights().tobytes()


@given(st.dictionaries(st.sampled_from(CODONS),
                       st.integers(0, 9) | st.floats(0.0, 5.0), max_size=64),
       st.integers(0, 63), st.sampled_from([0.0, 5e-10, -2e-9, 0.3]))
@settings(max_examples=300, deadline=None)
def test_codon_weights_match_loop(counts, codon, nudge):
    w = empirical_codon_weights(counts)
    assert w.tobytes() == oracle.empirical_codon_weights(counts).tobytes()
    w[codon] = max(w[codon] + nudge, 0.0)

    def outcome(check):
        try:
            check(w)
        except InvalidWeights as exc:
            return str(exc)
        return None
    assert outcome(_validate_weights) == outcome(oracle.check_weight_sums)


def test_translate_matches_codon_by_codon_table():
    table = oracle.standard_code()
    assert [translate(c) for c in CODONS] == [table[c] for c in CODONS]


def test_codons_for_matches_codon_by_codon_table():
    for k, aa in enumerate(AMINO_STATES):
        assert tuple(CODONS[i] for i in np.flatnonzero(CODON_AMINO == k)) == \
            oracle.standard_codons_for(aa)


# q = 0, gamma q = 0 with q > 0, subnormal q and subnormal gamma q, and the
# largest masses that KimuraParams accepts.
KIMURA_Q = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-150,
            1e-12, 1e-6, 1e-3, 0.01, 0.1, 0.2, 1 / 3, 0.49, 0.5, 0.9, 1.0]
KIMURA_GAMMA = [0.0, 5e-324, 1e-320, 1e-310, 1e-300, 1e-20, 1e-8, 1e-3, 0.1,
                0.25, 0.5, 1.0, 2.0, 10.0, 1e3, 1e10, 1e300]


def _kimura_params(q, gamma):
    try:
        return KimuraParams(q, gamma)
    except InvalidParams:
        return None


def test_kimura_matrices_match_rescaled_reference_on_grid():
    grid = [(q, g) for q in KIMURA_Q for g in KIMURA_GAMMA if _kimura_params(q, g)]
    assert any(q > 0 and g * q == 0 for q, g in grid)
    assert any(0 < g * q < 2.2250738585072014e-308 for q, g in grid)
    for q, g in grid:
        for mode in SubstitutionMode.ALL:
            got = kimura_base_matrix(KimuraParams(q, g), mode).matrix
            assert got.tobytes() == oracle.kimura_base_matrix(q, g, mode).tobytes(), \
                (q, g, mode)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1e6) | st.floats(0.0, 1e-300))
@settings(max_examples=300, deadline=None)
def test_kimura_matrices_match_rescaled_reference(q, gamma):
    params = _kimura_params(q, gamma)
    if params is None:
        return
    for mode in SubstitutionMode.ALL:
        assert kimura_base_matrix(params, mode).matrix.tobytes() == \
            oracle.kimura_base_matrix(q, gamma, mode).tobytes()
