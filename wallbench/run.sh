#!/bin/sh
# Builds the wall-clock benchmark from source (dune, in the checkout's
# _build/) and runs it; every argument goes to the benchmark:
#   sh wallbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
cd "$(dirname "$0")/.." || exit 2
exec dune exec --root . --display=quiet --no-print-directory ./wallbench/main.exe -- "$@"
