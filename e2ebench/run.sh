#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it:
#
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# from the root of a checkout.  The build goes to _build as usual; the
# shared dune cache is left alone, so nothing is written outside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "e2ebench/run.sh: no dune-project and lib/ here; run it from a full checkout" >&2
  exit 2
fi
dune build --root . --cache=disabled --display quiet ./e2ebench/main.exe >&2
exec ./_build/default/e2ebench/main.exe "$@"
