#!/usr/bin/env bash
# Build the program and the benchmark from source, then run one workload in
# a fresh process:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a source checkout.  Build output goes to stderr; the
# last line of stdout is the result JSON (see perfbench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/dft_tool.ml ]; then
  echo "perfbench: no source tree here (dune-project, lib/, bin/ missing); nothing to measure" >&2
  exit 2
fi
dune build --root . --cache=disabled ./perfbench/main.exe ./bin/dft_tool.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
