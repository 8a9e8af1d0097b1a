"""Golden bytes of the genetic-layer CLI artifacts.

The three subcommands `entropy`, `hotspots` and `direction` run on fixed
small FASTA inputs (mixed case, RNA 'u', CRLF, tabs, interior spaces, blank
lines, gaps, ambiguity codes, an all-masked column, unequal rows for the
non-strict case). Their artifacts must match the bytes in `tests/golden/`,
which were written by the implementation that stored alignments as `U1`
characters and counted one symbol at a time; any change to parsing,
alignment storage, counting, hot-spot ranking or codon tallies that moves a
byte fails here.
"""

import os

import pytest

from virodyne.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

NT_FASTA = (
    ">s01 first row\r\n"
    "ng-gcaaggACGTT-CCGGG\r\n"
    "TATTACC-CNTCGGGG\r\n"
    "\r\n"
    ">s02\n"
    "CGAGCACGCA CGUUUCCGGG\tGATTACCAC-ACGGGG\n"
    ">s03\n"
    "CGATCACGAACGTTTCAGG-CTTTACCACNACG-GG\n"
    ">s04\n"
    "cgagngGCAACNTATCCGGGTATTACCAN-ACGG-G\n"
    "\n"
    "\n"
    ">s05\n"
    "CGAGCAACT-NGTTNCCGGG\n"
    "AATTACCACNACGGGG\n"
    ">s06\n"
    "CGAGCACTGACGTTT-CGGGGATC-CCAC-ACGGGG\n"
    ">s07\n"
    "C-AGCAGAGAGGUUUCC-GGTA-TANCACNACAGGG\n"
    ">s08\n"
    "CGA-CATAGACGTTTCCGGCAATTACCAC-AGGGGG\n"
    ">s09\n"
    "CGAGCAAGAACGTTTCCGGGGATTCCCACNACGGGG\n"
    ">s10\n"
    "  CGAGCAGCCACGTATCCTNGTATTACCAC-ACGGGG  \n"
    ">s11\n"
    "C-AGCAGTGACGT-TCCGGGGATTACNACNACGGGG\n"
    ">s12\n"
    "CGAGCAAAAACGTTTCCGGG\n"
    "GATTACCAN-ACGCGG"
)

# The same rows with three of them cut short, for --no-strict truncation.
NT_RAGGED_FASTA = (
    NT_FASTA
    .replace("TATTACC-CNTCGGGG\r\n", "TATTACC-CNTCG\r\n")
    .replace("GATTACCAN-ACGCGG", "GATTACCAN-ACGCGGAC")
    .replace("CGAGCACTGACGTTT-CGGGGATC-CCAC-ACGGGG", "CGAGCACTGACGTTT-CGGGGATC-CCAC-ACGG")
)

AA_FASTA = (
    ">p1\n"
    "TFNWLLGKIHFHSQQTM-DKYPNKMGHFTV\n"
    ">p2\n"
    "tfxwllgnihfqildtm-dfypnkmchftc\n"
    ">p3\r\n"
    "TFNKLLGKIH FHSFQ-K-AV\r\n"
    "YPNKMGH-TC\r\n"
    ">p4\n"
    "TFNWLG*KIHFQSFQTM-DVYPNKMGHFTC\n"
    ">p5\n"
    "TENWLLGKXHFHSFQTM-DXYCYKMGHFTC\n"
    "\n"
    ">p6\n"
    "TFNWLLXKIHFNSFQ-M-DVYCSKMGVFTW\n"
    ">p7\n"
    "TFYWLLGKNHFQSF-TM-\tDVXPNKGGHFTT\n"
    ">p8\n"
    "TFNWLLGFIHFQAF-TM-DVYPNKM*HFMC\n"
)

INPUTS = {"nt.fasta": NT_FASTA, "nt_ragged.fasta": NT_RAGGED_FASTA,
          "aa.fasta": AA_FASTA}

# (artifact, subcommand and options, input); --fasta and --out are added.
CASES = [
    ("entropy_nt.csv", ["entropy"], "nt.fasta"),
    ("entropy_aa.csv", ["entropy", "--alphabet", "aa"], "aa.fasta"),
    ("entropy_ragged.csv", ["entropy", "--no-strict", "--pseudocount", "0.5"],
     "nt_ragged.fasta"),
    ("hotspots_nt.json", ["hotspots", "--top", "6"], "nt.fasta"),
    ("hotspots_aa.json", ["hotspots", "--alphabet", "aa", "--min-entropy", "0.5"],
     "aa.fasta"),
    ("hotspots_ragged.json", ["hotspots", "--no-strict", "--top", "40"],
     "nt_ragged.fasta"),
    ("direction_base.json", ["direction", "--position", "21", "--level", "base",
                             "--q", "1e-3", "--gamma", "0.5"], "nt.fasta"),
    ("direction_codon.json", ["direction", "--position", "3", "--level", "codon",
                              "--mode", "tv", "--q", "2e-3", "--gamma", "0.2"],
     "nt.fasta"),
    ("direction_nt_aa.json", ["direction", "--position", "3", "--level", "aa",
                              "--q", "1e-3", "--gamma", "0.1"], "nt.fasta"),
    ("direction_aa.json", ["direction", "--alphabet", "aa", "--position", "12",
                           "--level", "aa", "--mode", "ts", "--q", "1e-3",
                           "--gamma", "0.1"], "aa.fasta"),
]


def write_artifacts(workdir: str) -> dict[str, str]:
    """Write the inputs into `workdir`, run every case, return name -> path."""
    for name, text in INPUTS.items():
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(text.encode("utf-8"))
    out = {}
    for artifact, argv, fasta in CASES:
        path = os.path.join(workdir, artifact)
        rc = main([*argv, "--fasta", os.path.join(workdir, fasta),
                   "--out", path])
        assert rc == 0, artifact
        out[artifact] = path
    return out


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return write_artifacts(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("artifact", [c[0] for c in CASES])
def test_artifact_bytes_match_golden(artifacts, artifact):
    with open(artifacts[artifact], "rb") as fh:
        got = fh.read()
    with open(os.path.join(GOLDEN, artifact), "rb") as fh:
        want = fh.read()
    assert got == want
