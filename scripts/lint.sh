#!/bin/sh
# lint: check gofmt, then run the blobvet contract analyzers (plus go vet)
# without the full bench pipeline. This is the cheap pre-commit gate;
# benchcheck.sh runs the same blobvet stage before recording any number.
#
# Usage: scripts/lint.sh [packages...]   (default ./...)
set -e
cd "$(dirname "$0")/.."
pkgs="${@:-./...}"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "lint: gofmt needed:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go run ./cmd/blobvet $pkgs
go vet $pkgs
