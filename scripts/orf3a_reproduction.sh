#!/usr/bin/env bash
# Reproduce the ORF3a mutation hot-spot and direction analysis on real data.
#
# The sequence data is NOT bundled: download aligned SARS-CoV-2 ORF3a
# sequences yourself from NCBI Virus (https://www.ncbi.nlm.nih.gov/labs/virus/),
# e.g. protein sequences sampled between December 2019 and January 2020,
# exported as FASTA. The sequences must be pre-aligned (equal length); align
# them with your tool of choice (mafft, muscle) if they are not.
#
# Usage: scripts/orf3a_reproduction.sh ALIGNED_ORF3A.fasta OUTPUT_DIR
#
# The commands run as `python3 -m virodyne.cli`, so the package must be
# importable: install it, or run from a checkout with PYTHONPATH=src.
#
# With a sufficiently deep alignment the entropy profile shows hot-spots
# around positions 57, 172, and 223, and the transversion-restricted
# direction report at position 57 ranks histidine first (the well-known
# Q57H substitution). Peak locations are reproducible; exact entropy values
# depend on the download snapshot.

set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 ALIGNED_ORF3A.fasta OUTPUT_DIR" >&2
    exit 2
fi

FASTA="$1"
OUT="$2"
mkdir -p "$OUT"

python3 -m virodyne.cli entropy --fasta "$FASTA" --alphabet aa --out "$OUT/orf3a_entropy.csv"
python3 -m virodyne.cli hotspots --fasta "$FASTA" --alphabet aa --top 10 \
    --out "$OUT/orf3a_hotspots.json"
python3 -m virodyne.cli direction --fasta "$FASTA" --alphabet aa --position 57 \
    --q 1e-3 --gamma 0.1 --mode tv --level aa \
    --out "$OUT/orf3a_q57_direction.json"

echo "wrote $OUT/orf3a_entropy.csv, orf3a_hotspots.json, orf3a_q57_direction.json"
