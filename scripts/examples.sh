#!/bin/sh
# examples: build and run every example program against a fresh simulated
# store, failing on the first non-zero exit. Each example is a minimal
# end-to-end exerciser of one front-end (quickstart: blob data plane,
# posixlegacy: blobfs POSIX emulation, checkpoint: BlobCR checkpoint/restart
# through internal/blobcr, scidata: h5/adios scientific formats, analytics:
# sparksim shuffle), so this smoke run is what keeps the documented entry
# points from rotting —
# benchcheck.sh runs it before recording any number.
#
# Usage: scripts/examples.sh
set -e
cd "$(dirname "$0")/.."
go build ./examples/...
for ex in examples/*/; do
	name="$(basename "$ex")"
	echo "examples: running $name"
	go run "./$ex" >/dev/null
done
echo "examples: all passed"
