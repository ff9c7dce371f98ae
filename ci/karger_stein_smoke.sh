#!/usr/bin/env bash
# Karger-Stein smoke test for CI (ISSUE 8): the `ks` strategy must produce
# byte-identical solutions to the strategies it replaces, end to end through
# the CLI.
#
#  1. k = 4 on Q_4: solve with --strategy ks and --strategy exact (the
#     deterministically-complete size-1..3 specializations drive every level
#     below the last; the last level's size-3 cuts are still exact) and
#     require the two solution files to be byte-identical.
#  2. k = 8 on harary(8, 16): solve with --strategy ks and with the flat
#     --strategy contract ablation baseline, same seed, and require
#     byte-identical solutions (both are exactly verified, so agreement is
#     the determinism contract, not luck).
#  3. The label enumerator against both: --strategy label against exact on
#     Q_4 at k = 4, and against ks on harary(6, 16) at k = 6. A wrong rule
#     for which label-lookup completions follow a prefix shows up here.
#
# Every solution is independently re-verified with `kecss verify`.
set -euo pipefail

# shellcheck source=ci/lib.sh
source "$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/lib.sh"
smoke_init

echo "== k = 4 on Q_4: ks vs exact, byte-for-byte"
"${KECSS}" generate --family hypercube --n 16 --k 4 --output "${WORKDIR}/q4.graph"
"${KECSS}" solve --input "${WORKDIR}/q4.graph" --algorithm kecss --k 4 \
  --strategy ks --seed 3 --output "${WORKDIR}/q4-ks.edges"
"${KECSS}" solve --input "${WORKDIR}/q4.graph" --algorithm kecss --k 4 \
  --strategy exact --seed 3 --output "${WORKDIR}/q4-exact.edges"
cmp "${WORKDIR}/q4-ks.edges" "${WORKDIR}/q4-exact.edges" \
  || { echo "ks and exact solutions differ on Q_4"; exit 1; }
"${KECSS}" verify --input "${WORKDIR}/q4.graph" --solution "${WORKDIR}/q4-ks.edges" --k 4

echo "== k = 8 on harary(8, 16): ks vs the flat contract baseline, byte-for-byte"
"${KECSS}" generate --family harary --n 16 --k 8 --output "${WORKDIR}/h8.graph"
"${KECSS}" solve --input "${WORKDIR}/h8.graph" --algorithm kecss --k 8 \
  --strategy ks --seed 3 --output "${WORKDIR}/h8-ks.edges"
"${KECSS}" solve --input "${WORKDIR}/h8.graph" --algorithm kecss --k 8 \
  --strategy contract --seed 3 --output "${WORKDIR}/h8-contract.edges"
cmp "${WORKDIR}/h8-ks.edges" "${WORKDIR}/h8-contract.edges" \
  || { echo "ks and contract solutions differ at k = 8"; exit 1; }
"${KECSS}" verify --input "${WORKDIR}/h8.graph" --solution "${WORKDIR}/h8-ks.edges" --k 8

echo "== label vs exact on Q_4 at k = 4, label vs ks on harary(6, 16) at k = 6"
"${KECSS}" solve --input "${WORKDIR}/q4.graph" --algorithm kecss --k 4 \
  --strategy label --seed 3 --output "${WORKDIR}/q4-label.edges"
cmp "${WORKDIR}/q4-label.edges" "${WORKDIR}/q4-exact.edges" \
  || { echo "label and exact solutions differ on Q_4"; exit 1; }
"${KECSS}" generate --family harary --n 16 --k 6 --output "${WORKDIR}/h6.graph"
"${KECSS}" solve --input "${WORKDIR}/h6.graph" --algorithm kecss --k 6 \
  --strategy label --seed 3 --output "${WORKDIR}/h6-label.edges"
"${KECSS}" solve --input "${WORKDIR}/h6.graph" --algorithm kecss --k 6 \
  --strategy ks --seed 3 --output "${WORKDIR}/h6-ks.edges"
cmp "${WORKDIR}/h6-label.edges" "${WORKDIR}/h6-ks.edges" \
  || { echo "label and ks solutions differ at k = 6"; exit 1; }
"${KECSS}" verify --input "${WORKDIR}/h6.graph" --solution "${WORKDIR}/h6-label.edges" --k 6

echo "karger-stein smoke: OK"
