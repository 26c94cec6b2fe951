#!/usr/bin/env sh
# Fails if a library `impl Transport for` block under crates/*/src
# contains a panicking macro (`unreachable!`, `panic!`,
# `unimplemented!`, `todo!`). Every endpoint answers every call of the
# trait with a value or a typed TransportError — a half-duplex socket
# endpoint returns the closed-channel errors for the other half's calls
# (DESIGN.md §9).
#
# The block extent is found by brace counting from the `impl` line, so
# a macro named in a comment inside the block also trips the check.
# Finding no impl block at all is an error too, so a pattern that
# silently stops matching cannot pass vacuously.
#
# Usage: scripts/check_transport_impls.sh
set -eu
cd "$(dirname "$0")/.."

report=$(find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { inside = 0 }
    !inside && /^[[:space:]]*impl(<.*>)?[[:space:]]+([A-Za-z_]+::)*Transport[[:space:]]+for[[:space:]]/ {
        inside = 1; depth = 0; opened = 0; impls++
    }
    inside {
        if ($0 ~ /(unreachable|panic|unimplemented|todo)!/) {
            print FILENAME ":" FNR ":" $0; bad++
        }
        line = $0
        opens = gsub(/\{/, "", line)
        closes = gsub(/\}/, "", line)
        depth += opens - closes
        if (opens > 0) opened = 1
        if (opened && depth <= 0) inside = 0
    }
    END { printf "checked %d impl Transport blocks, %d panic sites\n", impls, bad }
')
echo "$report"
case "$report" in
*"checked 0 impl"*)
    echo "no impl Transport block found under crates/*/src" >&2
    exit 1
    ;;
*", 0 panic sites")
    ;;
*)
    echo "impl Transport blocks must not panic; return a TransportError instead" >&2
    exit 1
    ;;
esac
