#!/usr/bin/env bash
# Build the runtime benchmark from source, then run it.
#
#   bash perfbench/run.sh --workload serve|coord|cowichan|remote|all \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Run from the root of a working copy.  The build goes to .bench_build
# (dune's shared cache is off, so nothing is written outside the copy).
# The last line of standard output is the run's JSON result; a failed
# build or an incorrect result exits non-zero without printing one.
set -euo pipefail

build_dir=.bench_build
export DUNE_CACHE=disabled

dune build --root . --build-dir "$build_dir" --profile release \
  perfbench/main.exe 1>&2

# A revision a later reader can compare: the git commit when there is
# one, and always a digest of the sources the benchmark was built from.
commit=$(git rev-parse --short HEAD 2>/dev/null || echo none)
digest=$(find lib perfbench -type f \( -name '*.ml' -o -name '*.mli' -o -name '*.c' -o -name dune \) \
  | LC_ALL=C sort | xargs cat | sha1sum | cut -c1-12)
export PERFBENCH_REVISION="$commit src:$digest"

exec "$build_dir/default/perfbench/main.exe" "$@"
