#!/bin/sh
# Usage: cli_removed_backends.sh ARCHEX
# Each backend name that no longer exists must be a command-line parse
# error: cmdliner's exit code 124, with a message naming the backend.
archex=$1
for b in lp-bb core-guided portfolio; do
  err=$("$archex" mr --backend "$b" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 124 ] || ! printf '%s\n' "$err" | grep -q "unknown backend \"$b\""; then
    echo "--backend $b: exit $code: $err"
    exit 1
  fi
done
