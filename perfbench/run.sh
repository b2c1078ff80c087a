#!/bin/sh
# Build the daemon and the benchmark from source, then run one workload:
#
#   sh perfbench/run.sh --workload paper-analysis|serve-hot|serve-cold \
#                       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to stderr; the last
# line of stdout is the result object. Nothing is written outside the
# checkout: dune's shared cache is off, and the serving workloads keep
# their sockets, journals and span dumps in .perfbench_work/.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled
export DUNE_CACHE
dune build --root . ./bin/fannet_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
