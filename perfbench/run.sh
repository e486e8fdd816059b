#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build/ and
# runs it; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload tcp-steady --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the replicas' WALs all live under .bench_build/, so nothing is written
# outside the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
  exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -C "$root/perfbench" -o "$out/perfbench" .

# The replicas' WALs get a memory-backed filesystem of their own: a tmpfs
# mounted over .bench_build/wal inside a private mount namespace, so it is
# invisible outside this process tree and vanishes when the run ends. On a
# disk, fsync latency measures the host's other tenants more than this
# program. Where mount namespaces are not permitted, the WALs stay on the
# checkout's filesystem; every output names the filesystem it used.
wal="$out/wal"
mkdir -p "$wal"
mount_wal='mount -t tmpfs -o size=64m perfbench-wal "$0"'
for ns in "unshare -m --propagation private" "unshare -Urm --propagation private"; do
  if $ns sh -c "$mount_wal" "$wal" 2>/dev/null; then
    exec $ns sh -c "$mount_wal"' && exec "$@"' "$wal" "$out/perfbench" --wal-root "$wal" "$@"
  fi
done
exec "$out/perfbench" --wal-root "$wal" "$@"
