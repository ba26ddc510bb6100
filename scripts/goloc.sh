#!/usr/bin/env bash
# goloc.sh — net non-test Go lines of code, the size figure every
# change reports. It counts all lines (comments and blank lines
# included) of the tracked *.go files, leaving out tests (*_test.go),
# the analyzers' test inputs (internal/analysis/testdata/) and the
# benchmark module (benchmark/), and prints the total and the number
# of files counted.
#
# Usage: scripts/goloc.sh   (from anywhere inside the repository)
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
git ls-files -z -- '*.go' \
  ':(exclude)*_test.go' \
  ':(exclude)internal/analysis/testdata/' \
  ':(exclude)benchmark/' |
  xargs -0 wc -l |
  awk '$2 != "total" { lines += $1; files++ }
       END { printf "net non-test Go LOC: %d lines in %d files\n", lines, files }'
