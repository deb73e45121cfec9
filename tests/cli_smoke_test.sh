#!/bin/sh
# End-to-end smoke test of the emigre CLI: generate -> build-graph ->
# stats -> recommend -> explain -> experiment. Exercises the real binary
# the way a user would. Arguments: $1 = path to the emigre binary.
set -e
EMIGRE="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

"$EMIGRE" generate --dir "$DIR/ds" --users 25 --items 150 --categories 6 \
    --seed 99 > "$DIR/log" 2>&1
grep -q "dataset: 25 users" "$DIR/log"

"$EMIGRE" build-graph --dataset "$DIR/ds" --out "$DIR/g.graph" \
    --sample-users 5 > "$DIR/log" 2>&1
grep -q "graph:" "$DIR/log"
USER_ID=$(sed -n 's/^sampled evaluation users: \([0-9]*\).*/\1/p' "$DIR/log")
test -n "$USER_ID"

"$EMIGRE" stats --graph "$DIR/g.graph" > "$DIR/log" 2>&1
grep -q "Average Degree" "$DIR/log"

"$EMIGRE" recommend --graph "$DIR/g.graph" --user "$USER_ID" --top 3 \
    > "$DIR/log" 2>&1
ITEM_ID=$(sed -n '2s/.*\[\([0-9]*\)\].*/\1/p' "$DIR/log")
test -n "$ITEM_ID"

# explain returns 0 (found) or 3 (valid question, no explanation) — both
# are correct CLI behavior; anything else is a failure. --trace and
# --metrics-out must emit the span tree and a valid metrics JSON either way.
set +e
"$EMIGRE" explain --graph "$DIR/g.graph" --user "$USER_ID" \
    --item "$ITEM_ID" --mode auto --heuristic incremental \
    --trace --metrics-out "$DIR/m.json" > "$DIR/log" 2>&1
CODE=$?
set -e
test "$CODE" -eq 0 -o "$CODE" -eq 3
grep -q "== trace ==" "$DIR/log"
grep -q "explain.queries" "$DIR/log"
grep -q '"schema": "emigre.metrics.v1"' "$DIR/m.json"
grep -q '"trace"' "$DIR/m.json"

# --trace-out writes a Chrome trace (flight-recorder timeline) and
# --query-log appends one emigre.query.v1 JSONL record per Explain call,
# on the found and not-found paths alike.
set +e
"$EMIGRE" explain --graph "$DIR/g.graph" --user "$USER_ID" \
    --item "$ITEM_ID" --mode auto --heuristic incremental \
    --trace-out "$DIR/trace.json" --query-log "$DIR/q.jsonl" \
    > "$DIR/log" 2>&1
CODE=$?
set -e
test "$CODE" -eq 0 -o "$CODE" -eq 3
grep -q '"traceEvents"' "$DIR/trace.json"
grep -q '"ph": "X"' "$DIR/trace.json"
grep -q '"schema": "emigre.query.v1"' "$DIR/q.jsonl"
grep -q '"heuristic": "Incremental"' "$DIR/q.jsonl"
# auto mode = 1 or 2 Explain attempts, each exactly one JSONL line
LINES=$(wc -l < "$DIR/q.jsonl")
test "$LINES" -ge 1 -a "$LINES" -le 2

# A snapshot of the same graph serves the same answers: the engine ranks on
# its own CSR either way, so recommend prints identical lists. explain off
# the snapshot exits 0 or 3; a not-found answer carries the diagnosis.
"$EMIGRE" convert --in "$DIR/g.graph" --to snapshot --out "$DIR/g.csr" \
    > "$DIR/log" 2>&1
"$EMIGRE" recommend --graph "$DIR/g.graph" --user "$USER_ID" --top 3 \
    > "$DIR/rec-graph.txt" 2>&1
"$EMIGRE" recommend --graph "$DIR/g.csr" --user "$USER_ID" --top 3 \
    > "$DIR/rec-csr.txt" 2>&1
test -n "$(sed -n '3p' "$DIR/rec-csr.txt")"
cmp -s "$DIR/rec-graph.txt" "$DIR/rec-csr.txt"
for MODE in auto add; do
  set +e
  "$EMIGRE" explain --graph "$DIR/g.csr" --user "$USER_ID" \
      --item "$ITEM_ID" --mode "$MODE" --heuristic incremental \
      > "$DIR/log" 2>&1
  CODE=$?
  set -e
  test "$CODE" -eq 0 -o "$CODE" -eq 3
  if test "$CODE" -eq 3; then grep -q "^diagnosis:" "$DIR/log"; fi
done

# perfgate exit codes: 0 in-band, 1 regression, 2 usage error.
cat > "$DIR/base.json" <<'EOF'
{"schema": "emigre.bench.v1", "bench": "smoke", "scale": 0,
 "counters": {"smoke.events": 1000}, "gauges": {}, "histograms": {}}
EOF
sed 's/1000/1010/' "$DIR/base.json" > "$DIR/ok.json"
sed 's/1000/2000/' "$DIR/base.json" > "$DIR/bad.json"
"$EMIGRE" perfgate --baseline "$DIR/base.json" --current "$DIR/ok.json" \
    > "$DIR/log" 2>&1
grep -q "perfgate: PASS" "$DIR/log"
set +e
"$EMIGRE" perfgate --baseline "$DIR/base.json" --current "$DIR/bad.json" \
    > "$DIR/log" 2>&1; REGRESSION=$?
"$EMIGRE" perfgate --baseline "$DIR/base.json" 2>/dev/null; NOCURRENT=$?
"$EMIGRE" perfgate --baseline "$DIR/missing.json" \
    --current "$DIR/ok.json" 2>/dev/null; NOBASEFILE=$?
set -e
test "$REGRESSION" -eq 1
grep -q "smoke.events" "$DIR/log"
grep -q "perfgate: FAIL" "$DIR/log"
test "$NOCURRENT" -eq 2
test "$NOBASEFILE" -eq 2

# selfcheck runs the invariant validators against the built graph and must
# report zero violations; --metrics-out exposes the check.* counters.
"$EMIGRE" selfcheck --graph "$DIR/g.graph" --level full --samples 2 \
    --edits 2 --metrics-out "$DIR/sc.json" > "$DIR/log" 2>&1
grep -q "0 violation(s)" "$DIR/log"
grep -q "check.graph.pass" "$DIR/sc.json"
if "$EMIGRE" selfcheck --graph "$DIR/g.graph" --level bogus 2>/dev/null; then
  exit 1
fi

# Exit-code contract (tools/emigre_cli.cc): usage errors are 2, internal
# errors 1, no-explanation-found 3 (asserted above).
set +e
"$EMIGRE" 2>/dev/null; NOARGS=$?
"$EMIGRE" unknown-command 2>/dev/null; UNKNOWN=$?
"$EMIGRE" explain --bogus 2>/dev/null; BADFLAG=$?
"$EMIGRE" recommend --graph "$DIR/g.graph" --user -1 2>/dev/null; BADUSER=$?
"$EMIGRE" stats --graph "$DIR/does-not-exist.graph" 2>/dev/null; NOFILE=$?
set -e
test "$NOARGS" -eq 2
test "$UNKNOWN" -eq 2
test "$BADFLAG" -eq 2
test "$BADUSER" -eq 2
test "$NOFILE" -eq 1

# Binary dataset pipeline (docs/data_format.md): generate straight into
# emigre.bin.v1, inspect the directory, peek rows, convert across
# encodings, cut a CSR snapshot, and serve a query off the mmap.
"$EMIGRE" generate --users 25 --items 150 --categories 6 --seed 99 \
    --format bin --out "$DIR/ds.bin" > "$DIR/log" 2>&1
grep -q "dataset:" "$DIR/log"

# Bare inspect prints section stats without touching payloads.
"$EMIGRE" inspect --in "$DIR/ds.bin" > "$DIR/log" 2>&1
grep -q "emigre.bin.v1 dataset: 5 sections" "$DIR/log"
grep -q "section ratings:" "$DIR/log"

# --head prints a header line plus exactly N rows, indexed from 0.
"$EMIGRE" inspect --in "$DIR/ds.bin" --section ratings --head 3 \
    > "$DIR/head.txt" 2>&1
test "$(wc -l < "$DIR/head.txt")" -eq 4
sed -n '2p' "$DIR/head.txt" | grep -q "^0"

# --tail ends on the last row of the section (150 items -> index 149).
"$EMIGRE" inspect --in "$DIR/ds.bin" --section items --tail 2 \
    > "$DIR/tail.txt" 2>&1
test "$(wc -l < "$DIR/tail.txt")" -eq 3
sed -n '3p' "$DIR/tail.txt" | grep -q "^149"

# --sample is a seeded reservoir: same seed -> identical bytes, different
# seed -> a different draw.
"$EMIGRE" inspect --in "$DIR/ds.bin" --section ratings --sample 5 --seed 7 \
    > "$DIR/s1.txt" 2>&1
"$EMIGRE" inspect --in "$DIR/ds.bin" --section ratings --sample 5 --seed 7 \
    > "$DIR/s2.txt" 2>&1
"$EMIGRE" inspect --in "$DIR/ds.bin" --section ratings --sample 5 --seed 8 \
    > "$DIR/s3.txt" 2>&1
cmp -s "$DIR/s1.txt" "$DIR/s2.txt"
test "$(wc -l < "$DIR/s1.txt")" -eq 6
if cmp -s "$DIR/s1.txt" "$DIR/s3.txt"; then exit 1; fi

# Convert round trip: bin -> csv -> bin, then bin -> bin must be
# byte-stable (the binary encoding is exact; CSV is the lossy leg).
"$EMIGRE" convert --in "$DIR/ds.bin" --to csv --out "$DIR/ds-csv" \
    > "$DIR/log" 2>&1
grep -q "(csv)" "$DIR/log"
"$EMIGRE" convert --in "$DIR/ds-csv" --to bin --out "$DIR/ds2.bin" \
    > "$DIR/log" 2>&1
"$EMIGRE" convert --in "$DIR/ds2.bin" --to bin --out "$DIR/ds3.bin" \
    > "$DIR/log" 2>&1
cmp -s "$DIR/ds2.bin" "$DIR/ds3.bin"

# Snapshot: stream the binary dataset into emigre.csr.v1 and serve off it.
"$EMIGRE" convert --in "$DIR/ds.bin" --to snapshot --out "$DIR/ds.csr" \
    > "$DIR/log" 2>&1
grep -q "snapshot:" "$DIR/log"
"$EMIGRE" inspect --in "$DIR/ds.csr" > "$DIR/log" 2>&1
grep -q "emigre.csr.v1 snapshot:" "$DIR/log"
grep -q "backing: mmap" "$DIR/log"
"$EMIGRE" recommend --graph "$DIR/ds.csr" --user 0 --top 3 \
    > "$DIR/log" 2>&1
test -n "$(sed -n '2p' "$DIR/log")"

# Format exit codes: usage errors 2, missing/corrupt input 1.
head -c 100 "$DIR/ds.bin" > "$DIR/trunc.bin"
set +e
"$EMIGRE" convert --in "$DIR/ds.bin" --to parquet --out "$DIR/x" \
    2>/dev/null; BADTO=$?
"$EMIGRE" convert --in "$DIR/ds.bin" --to bin 2>/dev/null; NOOUT=$?
"$EMIGRE" inspect --in "$DIR/ds.bin" --section ratings 2>/dev/null; NOMODE=$?
"$EMIGRE" inspect --in "$DIR/missing.bin" 2>/dev/null; NOBIN=$?
"$EMIGRE" inspect --in "$DIR/ds.bin" --section bogus --head 1 \
    2>/dev/null; NOSECT=$?
"$EMIGRE" inspect --in "$DIR/trunc.bin" 2>/dev/null; TRUNC=$?
set -e
test "$BADTO" -eq 2
test "$NOOUT" -eq 2
test "$NOMODE" -eq 2
test "$NOBIN" -eq 1
test "$NOSECT" -eq 1
test "$TRUNC" -eq 1

# chaos runs in every build; without -DEMIGRE_FAULT_INJECTION=ON the sites
# are compiled out and it degenerates to a plain-pipeline soak.
"$EMIGRE" chaos --seeds 2 --queries 1 --users 20 --items 120 \
    > "$DIR/log" 2>&1
grep -q "chaos soak passed" "$DIR/log"

echo "cli smoke ok"
