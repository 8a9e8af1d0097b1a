"""End-to-end run of scripts/orf3a_reproduction.sh from a plain checkout."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "orf3a_reproduction.sh")


def test_script_ranks_histidine_first_at_q57(tmp_path):
    # Eight 80-residue rows: glutamine at position 57, a few varied columns.
    base = list("MDLFMRIFTIGTVTLKQGEIKDATPSDFVRATATIPIQASLPFGWLIVGVALLAVFQSASKIITLKKRWQLALSKGVHFV")
    assert base[56] == "Q"
    rows = []
    for i in range(8):
        row = list(base)
        row[9] = "ACDE"[i % 4]
        row[70] = "KR"[i % 2]
        rows.append("".join(row))
    fasta = tmp_path / "orf3a.fasta"
    fasta.write_text("".join(f">s{i}\n{r}\n" for i, r in enumerate(rows)))
    out = tmp_path / "out"

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    # `python3` in the script resolves to the interpreter running the tests.
    env["PATH"] = os.pathsep.join([os.path.dirname(sys.executable), env["PATH"]])
    proc = subprocess.run(["bash", SCRIPT, str(fasta), str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

    for name in ("orf3a_entropy.csv", "orf3a_hotspots.json",
                 "orf3a_q57_direction.json"):
        assert (out / name).is_file(), name
    report = json.loads((out / "orf3a_q57_direction.json").read_text())
    assert report["position"] == 57
    assert report["source"] == {"Q": 1.0}
    assert report["targets"][0]["state"] == "H"
    hot = json.loads((out / "orf3a_hotspots.json").read_text())["hotspots"]
    assert [h["position"] for h in hot[:2]] == [10, 71]
