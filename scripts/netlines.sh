#!/bin/sh
# Count the production Go lines a change adds and removes: non-test
# .go files outside the bench/ module, compared between a base ref and
# the working tree (tracked and staged files; stage new files first).
#
# Usage: scripts/netlines.sh <base-ref>
# Prints one line: "added A removed R net N" (N = A - R; negative when
# the change deletes more than it adds).
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 <base-ref>" >&2
    exit 2
fi

git diff --numstat "$1" -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/' |
    awk '{ a += $1; r += $2 } END { printf "added %d removed %d net %+d\n", a, r, a - r }'
