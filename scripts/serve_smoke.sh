#!/usr/bin/env bash
# Loopback smoke for the live serving front-end: start twig_serve on
# an ephemeral port, fire twig_loadgen at it, and check that both
# sides agree and shut down cleanly.
#
# Usage: scripts/serve_smoke.sh [BUILD_DIR]
#
# Asserts, end to end: the daemon binds and prints its port; the load
# generator connects, gets every offered request acked, and exits 0;
# the daemon accepts the same number of requests, writes one BDQ
# checkpoint per node, and reports a clean shutdown after SIGTERM (exit
# 0) — the graceful-shutdown contract under a real signal, not just the
# in-process test. The per-node set then warm-starts a batch fleet of
# the same shape (`twig --checkpoint 'node{node}.ckpt'`, exit 0), and a
# copy of one file with one byte flipped is refused with exit 2 and a
# message naming the checksum. A --final-checkpoint path without
# {node} on the 4-node fleet is refused at start (exit 2).
set -u

cd "$(dirname "$0")/.."
build_dir=${1:-build}
serve="$build_dir/tools/twig_serve"
loadgen="$build_dir/tools/twig_loadgen"
twig="$build_dir/tools/twig"

for exe in "$serve" "$loadgen" "$twig"; do
    if [[ ! -x "$exe" ]]; then
        echo "serve_smoke: $exe not found -- build the project first" >&2
        exit 1
    fi
done

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
serve_log="$workdir/serve.log"
ckpt_set="$workdir/node{node}.ckpt"
ckpt="$workdir/node0.ckpt"

# One file per node: a plain path on a 4-node fleet is refused at start.
plain_out=$("$serve" --scenario scenarios/serve.json --duration-s 0.1 \
    --final-checkpoint "$workdir/final.ckpt" 2>&1)
plain_status=$?
if [[ $plain_status -ne 2 ]] || ! grep -q '{node}' <<<"$plain_out"; then
    printf '%s\n' "$plain_out"
    echo "serve_smoke: FAIL (plain --final-checkpoint on 4 nodes: exit $plain_status, want 2 naming {node})" >&2
    exit 1
fi

"$serve" --scenario scenarios/serve.json --interval-ms 20 \
    --final-checkpoint "$ckpt_set" >"$serve_log" 2>&1 &
serve_pid=$!

# Wait for the daemon to report its (ephemeral) port. Generous budget:
# fleet construction is slow under sanitizers.
port=""
for _ in $(seq 1 300); do
    port=$(grep -oE 'listening on 127\.0\.0\.1:[0-9]+' "$serve_log" |
        grep -oE '[0-9]+$' || true)
    [[ -n "$port" ]] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "serve_smoke: daemon died before listening" >&2
        cat "$serve_log" >&2
        exit 1
    fi
    sleep 0.1
done
if [[ -z "$port" ]]; then
    echo "serve_smoke: daemon never reported a port" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null
    exit 1
fi
echo "serve_smoke: daemon up on port $port"

if ! loadgen_out=$("$loadgen" --port "$port" --rps 100000 \
    --connections 4 --duration-s 1 2>&1); then
    printf '%s\n' "$loadgen_out"
    echo "serve_smoke: FAIL (twig_loadgen exited non-zero)" >&2
    kill "$serve_pid" 2>/dev/null
    exit 1
fi
printf '%s\n' "$loadgen_out"

offered=$(grep -oE 'offered [0-9]+' <<<"$loadgen_out" | grep -oE '[0-9]+')
acked=$(grep -oE 'acked +[0-9]+' <<<"$loadgen_out" | grep -oE '[0-9]+')
if [[ -z "$offered" || "$offered" -eq 0 || "$offered" != "$acked" ]]; then
    echo "serve_smoke: FAIL (offered=$offered acked=$acked)" >&2
    kill "$serve_pid" 2>/dev/null
    exit 1
fi

# Graceful shutdown under a real signal.
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "serve_smoke: FAIL (daemon exited non-zero on SIGTERM)" >&2
    cat "$serve_log" >&2
    exit 1
fi
cat "$serve_log"

if ! grep -q "clean shutdown" "$serve_log"; then
    echo "serve_smoke: FAIL (no clean-shutdown line)" >&2
    exit 1
fi
if ! grep -qE "accepted $offered requests" "$serve_log"; then
    echo "serve_smoke: FAIL (daemon did not accept all $offered offered requests)" >&2
    exit 1
fi
for n in 0 1 2 3; do
    if [[ ! -s "$workdir/node$n.ckpt" ]]; then
        echo "serve_smoke: FAIL (no final checkpoint written for node $n)" >&2
        exit 1
    fi
done

# The served fleet's online learning warm-starts a batch fleet of the
# same shape (scenarios/serve.json: 4 nodes, Masstree + img-dnn), each
# node from its own file.
warm=(--service masstree --service img-dnn --nodes 4 --steps 20)
if ! warm_out=$("$twig" "${warm[@]}" --checkpoint "$ckpt_set" 2>&1); then
    printf '%s\n' "$warm_out"
    echo "serve_smoke: FAIL (twig --checkpoint rejected the daemon's checkpoints)" >&2
    exit 1
fi
echo "serve_smoke: twig --checkpoint warm-started from the daemon's per-node checkpoints"

# One flipped byte mid-file must be refused: exit 2, checksum named.
bad="$workdir/flipped.ckpt"
cp "$ckpt" "$bad"
mid=$(($(wc -c <"$ckpt") / 2))
byte=$(od -An -tu1 -j "$mid" -N1 "$ckpt" | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 1)))" |
    dd of="$bad" bs=1 seek="$mid" conv=notrunc status=none
if cmp -s "$ckpt" "$bad"; then
    echo "serve_smoke: FAIL (could not flip a checkpoint byte)" >&2
    exit 1
fi
bad_out=$("$twig" "${warm[@]}" --checkpoint "$bad" 2>&1)
bad_status=$?
if [[ $bad_status -ne 2 ]] || ! grep -q checksum <<<"$bad_out"; then
    printf '%s\n' "$bad_out"
    echo "serve_smoke: FAIL (flipped checkpoint: exit $bad_status, want 2 naming the checksum)" >&2
    exit 1
fi
printf '%s\n' "$bad_out"
echo "serve_smoke: OK (offered=$offered acked=$acked, checkpoints $(cat "$workdir"/node?.ckpt | wc -c) bytes)"
