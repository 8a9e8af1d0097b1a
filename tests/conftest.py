import numpy as np
import pytest

from virodyne import epidemic
from virodyne.mobility import KnotTable
from virodyne.seqstat import Alphabet, build_alignment, parse_fasta


def observer_doses(observers, infected, env, t0, t1):
    """Each observer's dose over [t0, t1] from (agent, emission start)
    pairs, read as a step reads it: one KnotTable of every path."""
    agents = [*observers, *(a for a, _ in infected)]
    rows = [(len(observers) + j, start) for j, (_, start) in enumerate(infected)]
    return epidemic._doses(KnotTable([a.trajectory for a in agents]), agents,
                           np.arange(len(observers)), rows, env, t0, t1)


def make_alignment(rows, alphabet=Alphabet.NUCLEOTIDE, strict=True):
    """Build an alignment from raw sequence strings."""
    fasta = "".join(f">s{i}\n{seq}\n" for i, seq in enumerate(rows))
    return build_alignment(parse_fasta(fasta, alphabet), alphabet,
                           strict_length=strict)


def codon_alignment(codon_rows, background="GCT", n_codons=60, position=57):
    """Nucleotide alignment whose codon at `position` cycles through
    codon_rows; everything else is a constant background codon."""
    rows = []
    for i in range(len(codon_rows)):
        codons = [background] * n_codons
        codons[position - 1] = codon_rows[i]
        rows.append("".join(codons))
    return make_alignment(rows)


@pytest.fixture
def q_column_alignment():
    """Eight sequences whose amino position 57 is glutamine via CAA/CAG."""
    return codon_alignment(["CAA", "CAG"] * 4)
