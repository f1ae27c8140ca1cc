#!/usr/bin/env sh
# Regenerate the checked-in golden traces under tests/golden/data/.
#
# Run this after an *intentional* change to the executor model, the fault
# layer, the assessment (steady state, indicators, objective, makespans),
# the obs emission sites, or the exporter formatting — then review the
# golden diff like any other code change before committing it.
#
# Usage: tools/update_golden.sh [build-dir]   (default: ./build)
set -eu

build_dir="${1:-build}"
binary="$build_dir/tests/test_golden"

if [ ! -x "$binary" ]; then
  echo "error: $binary not built (cmake --build $build_dir --target test_golden)" >&2
  exit 1
fi

WFENS_UPDATE_GOLDEN=1 "$binary" --gtest_brief=1
echo "goldens updated; review with: git diff tests/golden/data"
