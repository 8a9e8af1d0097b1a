"""Golden artifacts of the CLI: genetic-layer bytes, physical-layer values.

The three subcommands `entropy`, `hotspots` and `direction` run on fixed
small FASTA inputs (mixed case, RNA 'u', CRLF, tabs, interior spaces, blank
lines, gaps, ambiguity codes, an all-masked column, unequal rows for the
non-strict case). Their artifacts must match the bytes in `tests/golden/`,
which were written by the implementation that stored alignments as `U1`
characters and counted one symbol at a time; any change to parsing,
alignment storage, counting, hot-spot ranking or codon tallies that moves a
byte fails here.

The physical-layer commands `field`, `epidemic --summary` and `detect` run
on the shipped configs and are checked against artifacts recorded before
the scalar entry points of channel, mobility, epidemic, detection and
localization became one-row calls of their batch paths. Meta lines,
headers, S/I states, counts and the detect report must match exactly;
other floats to rel 1e-12, since numpy's SIMD exp may differ by an ulp
between CPUs.
"""

import json
import os
from pathlib import Path

import pytest

from virodyne.cli import _ALPHABETS, main
from virodyne.seqstat import Alphabet, build_alignment, parse_fasta, positional_entropy

from conftest import READINGS_CSV

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


# (command, config, artifacts in the order of the extra options)
PHYSICAL_CASES = [
    ("field", "walk_past.cfg", ["--out"], ["field_walk_past.csv"]),
    ("epidemic", "epidemic_demo.cfg", ["--out", "--summary"],
     ["epidemic_demo.csv", "epidemic_demo_summary.json"]),
    ("detect", "detect_demo.cfg", ["--out"], ["detect_demo.json"]),
]


def _cells_match(got: str, want: str) -> bool:
    """Equal text, or two floats that agree to rel 1e-12 where the golden
    cell is written with a point or exponent; integers and labels must be
    equal."""
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return ("." in want or "e" in want) and g == pytest.approx(w, rel=1e-12, abs=0.0)


def _assert_csv_matches(got_path: str, want_path: str) -> None:
    got = Path(got_path).read_text().splitlines()
    want = Path(want_path).read_text().splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w.startswith("#") or not any(c.isdigit() for c in w):
            assert g == w  # meta lines and the header
            continue
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells)
        assert all(_cells_match(a, b) for a, b in zip(g_cells, w_cells)), (g, w)


@pytest.mark.parametrize("command, cfg, flags, names", PHYSICAL_CASES,
                         ids=[c[0] for c in PHYSICAL_CASES])
def test_physical_layer_artifacts_match_golden(tmp_path, command, cfg, flags, names):
    argv = [command, "--config", str(CONFIGS / cfg)]
    for flag, name in zip(flags, names):
        argv += [flag, str(tmp_path / name)]
    assert main(argv) == 0
    for name in names:
        got, want = str(tmp_path / name), os.path.join(GOLDEN, name)
        if name.endswith(".csv"):
            _assert_csv_matches(got, want)
        else:
            # Counts, times, BER and its interval are exact in the JSON.
            with open(got, encoding="utf-8") as g, open(want, encoding="utf-8") as w:
                assert json.load(g) == json.load(w)


@pytest.mark.parametrize("alphabet", ["nt", "aa"])
def test_entropy_rows_are_repr_of_each_value(tmp_path, alphabet):
    # Entropy texts are formed once per distinct value; every row must
    # still read as repr of its own value. Column 3 is all gaps (nan).
    rows = ["AC-GTTAN", "AG-GATCA", "TC-GTCAA", "AA-G-TGA", "CC-GATAN"]
    if alphabet == "aa":
        rows = [r.replace("N", "X").replace("T", "W") for r in rows]
    text = "".join(f">r{i}\n{r}\n" for i, r in enumerate(rows))
    fasta, out = tmp_path / "in.fasta", tmp_path / "profile.csv"
    fasta.write_text(text)
    assert main(["entropy", "--alphabet", alphabet, "--fasta", str(fasta),
                 "--out", str(out)]) == 0
    kind = Alphabet[_ALPHABETS[alphabet]]
    profile = positional_entropy(build_alignment(parse_fasta(text, kind), kind))
    want = [f"{i},{e!r},{n}" for i, e, n in zip(range(1, profile.length + 1),
                                                profile.entropies.tolist(),
                                                profile.n_effective.tolist())]
    got = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert got[0] == "position,entropy_bits,n_effective"
    assert got[1:] == want
    assert got[3] == "3,nan,0"
    assert len(set(profile.entropies.tolist())) < profile.length  # repeats


# The names a layer tracer wraps on the cli module (getattr, then setattr),
# each with the artifact of a run that must call the wrapper: a golden
# above, or, for sequence-ML detect and localize, which have none, the same
# run unwrapped.
TRACED = {
    "load_config": "field_walk_past.csv",
    "evaluate_field": "field_walk_past.csv",
    "run_epidemic": "epidemic_demo.csv",
    "error_probability": "sequence.json",
    "localize": "estimate.json",
    "parse_fasta": "entropy_nt.csv",
    "build_alignment": "entropy_nt.csv",
    "positional_entropy": "entropy_nt.csv",
    "write_csv": "entropy_nt.csv",
    "select_hotspots": "hotspots_nt.json",
    "write_json": "hotspots_nt.json",
    "mutation_direction": "direction_base.json",
}


def _traced_run(workdir: Path, artifact: str, out_name: str) -> Path:
    """Run the command that writes `artifact`, to workdir / out_name."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text, encoding="utf-8", newline="")
    (workdir / "readings.csv").write_text(READINGS_CSV)
    (workdir / "sequence.cfg").write_text(
        (CONFIGS / "detect_demo.cfg").read_text()
        .replace("mode = threshold", "mode = sequence").replace("trials = 20000", "trials = 200"))
    argv = {a: [*args, "--fasta", str(workdir / fasta)] for a, args, fasta in CASES}
    argv.update({
        "field_walk_past.csv": ["field", "--config", str(CONFIGS / "walk_past.cfg")],
        "epidemic_demo.csv": ["epidemic", "--config", str(CONFIGS / "epidemic_demo.cfg")],
        "sequence.json": ["detect", "--config", str(workdir / "sequence.cfg")],
        "estimate.json": ["localize", "--config", str(CONFIGS / "walk_past.cfg"),
                          "--readings", str(workdir / "readings.csv")],
    })
    out = workdir / out_name
    assert main([*argv[artifact], "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", list(TRACED))
def test_wrapper_set_on_cli_is_called(tmp_path, monkeypatch, name):
    # The subcommands look each layer name up on the cli module when they
    # run, so a wrapper set there is the one called, whether or not the
    # layer was imported before, and the artifact keeps its bytes.
    from virodyne import cli

    artifact = TRACED[name]
    want = Path(GOLDEN, artifact)
    if not want.exists():
        want = _traced_run(tmp_path, artifact, "unwrapped_" + artifact)
    raw, calls = getattr(cli, name), []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return raw(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    got = _traced_run(tmp_path, artifact, artifact)
    assert calls
    if artifact in ("field_walk_past.csv", "epidemic_demo.csv"):
        _assert_csv_matches(str(got), str(want))  # floats to rel 1e-12, as above
    else:
        assert got.read_bytes() == want.read_bytes()
