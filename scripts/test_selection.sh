#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` pattern matches no test,
# fuzz target or example in the given packages. A renamed or moved test
# would otherwise leave its alternative selecting nothing, and `go test`
# still passes ("no tests to run").
#   bash scripts/test_selection.sh [-tags T] 'A|B|C' pkg...
# The pattern is split at every '|': keep alternatives free of groups.
set -euo pipefail
go=${GO:-go}
tags=()
if [ "${1:-}" = -tags ]; then
	tags=(-tags "$2")
	shift 2
fi
pattern=$1
shift
names=$("$go" test ${tags[@]+"${tags[@]}"} -list . "$@" | grep -E '^(Test|Fuzz|Example)' || true)
status=0
IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
	if ! grep -qE -- "$alt" <<<"$names"; then
		echo "test selection: -run alternative '$alt' matches no test in $*" >&2
		status=1
	fi
done
exit $status
