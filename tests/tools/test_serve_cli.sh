#!/bin/sh
# CLI contract tests for the planner-service tool chain: pack
# converts a surface directory, --describe prints its contents, serve
# answers JSON queries, loadgen runs a deterministic mix, and
# malformed invocations exit 2 (usage) or 1 (corrupt data).
# Usage: test_serve_cli.sh /path/to/pack /path/to/serve /path/to/loadgen
set -u

pack="$1"
serve="$2"
loadgen="$3"
fails=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# expect_usage <description> <binary> <args...>: exit 2 + stderr text.
expect_usage() {
    desc="$1"
    bin="$2"
    shift 2
    "$bin" "$@" >/dev/null 2>"$tmp/err"
    code=$?
    if [ "$code" -ne 2 ]; then
        echo "FAIL: $desc: exit $code, expected 2"
        fails=1
    elif [ ! -s "$tmp/err" ]; then
        echo "FAIL: $desc: no error message on stderr"
        fails=1
    else
        echo "ok: $desc"
    fi
}

expect_usage "pack with no arguments" "$pack"
expect_usage "pack missing --out" "$pack" --machine t3e --surfaces x
expect_usage "pack describe mixed with convert" "$pack" \
    --describe f --machine t3e
expect_usage "serve with no packs" "$serve"
expect_usage "serve unknown option" "$serve" --pack x --bogus
expect_usage "loadgen without --queries" "$loadgen" --pack x
expect_usage "loadgen unknown mix" "$loadgen" --pack x \
    --queries 10 --mix zipf

# expect_bad_value <binary> <option> <value> [args...]: a malformed
# numeric value exits 2 with a message naming the option and value.
expect_bad_value() {
    bin="$1"
    opt="$2"
    value="$3"
    shift 3
    name=$(basename "$bin")
    "$bin" "$@" "$opt" "$value" >/dev/null 2>"$tmp/err"
    code=$?
    if [ "$code" -ne 2 ]; then
        echo "FAIL: $name $opt '$value': exit $code, expected 2"
        fails=1
    elif ! grep -qF "bad value '$value' for $opt" "$tmp/err"; then
        echo "FAIL: $name $opt '$value': message does not name them"
        fails=1
    else
        echo "ok: $name $opt '$value' rejected"
    fi
}

for v in 4x 1e3 -1 "" 99999; do
    expect_bad_value "$serve" --threads "$v" --pack x
done
for v in 0 1e3 -1 2k; do
    expect_bad_value "$serve" --batch "$v" --pack x
done
for v in -1 1.5 10us 18446744073709551615; do
    expect_bad_value "$serve" --slow-query-us "$v" --pack x
done
for v in -5 abc 10ms; do
    expect_bad_value "$serve" --metrics-interval-ms "$v" --pack x
done
for v in 1e6 0 -1 12q; do
    expect_bad_value "$loadgen" --queries "$v" --pack x
done
for v in 4x -2 " 3"; do
    expect_bad_value "$loadgen" --threads "$v" --pack x --queries 10
done
for v in -5 0x10 18446744073709551615; do
    expect_bad_value "$loadgen" --seed "$v" --pack x --queries 10
done
for v in -5 1s; do
    expect_bad_value "$loadgen" --metrics-interval-ms "$v" --pack x \
        --queries 10
done

# --help prints usage on stdout, exits 0, and points at the docs.
for bin in "$pack" "$serve" "$loadgen"; do
    out=$("$bin" --help 2>"$tmp/err")
    code=$?
    name=$(basename "$bin")
    if [ "$code" -ne 0 ]; then
        echo "FAIL: $name --help: exit $code, expected 0"
        fails=1
    elif ! echo "$out" | grep -q "usage: $name"; then
        echo "FAIL: $name --help: no usage text on stdout"
        fails=1
    elif ! echo "$out" | grep -q "planner_service"; then
        echo "FAIL: $name --help does not reference the docs"
        fails=1
    else
        echo "ok: $name --help"
    fi
done

# Build a tiny surface directory by hand (the text format is the
# measurement-side interchange; see src/core/surface_io.hh).
mkdir "$tmp/surfaces"
cat > "$tmp/surfaces/pull.surface" <<'EOF'
gasnub-surface 1
name demo pull
workingsets 2 1024 1048576
strides 3 1 8 64
data
120.5 80.25 60.125
110.5 70.25 50.125
end
EOF
cat > "$tmp/surfaces/fetch-sload.surface" <<'EOF'
gasnub-surface 1
name demo fetch
workingsets 2 1024 1048576
strides 3 1 8 64
data
300.5 150.25 90.125
280.5 140.25 80.125
end
EOF

# Convert, then re-convert: the pack writer must be deterministic.
if ! "$pack" --machine demo --surfaces "$tmp/surfaces" \
        --out "$tmp/demo.pack" 2>"$tmp/err"; then
    echo "FAIL: pack conversion failed"
    cat "$tmp/err"
    fails=1
else
    echo "ok: pack conversion"
fi
"$pack" --machine demo --surfaces "$tmp/surfaces" \
    --out "$tmp/demo2.pack" 2>/dev/null
if ! cmp -s "$tmp/demo.pack" "$tmp/demo2.pack"; then
    echo "FAIL: pack output differs between identical runs"
    fails=1
else
    echo "ok: pack output is deterministic"
fi

# --describe names the machine and every option.
out=$("$pack" --describe "$tmp/demo.pack" 2>"$tmp/err")
if [ $? -ne 0 ]; then
    echo "FAIL: pack --describe failed"
    cat "$tmp/err"
    fails=1
elif ! echo "$out" | grep -q "machine: demo"; then
    echo "FAIL: --describe does not name the machine"
    fails=1
elif ! echo "$out" | grep -q "fetch-sload" ||
        ! echo "$out" | grep -q "pull"; then
    echo "FAIL: --describe does not list the options"
    fails=1
else
    echo "ok: pack --describe"
fi

# A pack read from a pipe (no size to stat) loads like the file.
piped=$(cat "$tmp/demo.pack" | "$pack" --describe /dev/stdin 2>"$tmp/err")
if [ $? -ne 0 ]; then
    echo "FAIL: pack --describe from a pipe failed"
    cat "$tmp/err"
    fails=1
elif [ "$(echo "$piped" | sed 1d)" != "$(echo "$out" | sed 1d)" ]; then
    echo "FAIL: a piped pack describes differently from the file"
    fails=1
else
    echo "ok: pack loads from a pipe"
fi

# A corrupt pack dies with exit 1 naming the file.
head -c 100 "$tmp/demo.pack" > "$tmp/corrupt.pack"
"$pack" --describe "$tmp/corrupt.pack" >/dev/null 2>"$tmp/err"
code=$?
if [ "$code" -ne 1 ]; then
    echo "FAIL: corrupt pack: exit $code, expected 1"
    fails=1
elif ! grep -q "corrupt.pack" "$tmp/err"; then
    echo "FAIL: corrupt pack diagnostic does not name the file"
    fails=1
else
    echo "ok: corrupt pack dies with a diagnostic"
fi

# serve answers JSON queries on stdin; fetch wins everywhere in this
# surface pair.
cat > "$tmp/queries" <<'EOF'
{"machine": "demo", "bytes": 1048576, "ws": 1048576, "stride": 8}
{"machine": "demo", "bytes": 1048576, "ws": 1048576, "stride": 8}
{"machine": "demo", "bytes": 2048, "ws": 1024, "stride": 1}
EOF
out=$("$serve" --pack "$tmp/demo.pack" < "$tmp/queries" \
      2>"$tmp/err")
if [ $? -ne 0 ]; then
    echo "FAIL: serve run failed"
    cat "$tmp/err"
    fails=1
elif [ "$(echo "$out" | wc -l)" -ne 3 ]; then
    echo "FAIL: serve answered $(echo "$out" | wc -l) of 3 queries"
    fails=1
elif ! echo "$out" | head -1 | grep -q '"option": "fetch-sload"'; then
    echo "FAIL: serve picked the wrong option"
    fails=1
else
    echo "ok: serve answers JSON queries"
fi

# Answers are byte-identical whether one worker or two plan a batch
# (spot-check of the determinism contract at the CLI level), over
# on-grid, off-grid and out-of-grid points.
for ws in 512 1024 3000 65536 1048576 4194304; do
    for st in 1 2 8 20 64 100; do
        printf '{"machine": "demo", "bytes": %d, "ws": %d, "stride": %d}\n' \
            $((ws * 2)) "$ws" "$st"
    done
done > "$tmp/grid_queries"
"$serve" --pack "$tmp/demo.pack" --threads 1 < "$tmp/grid_queries" \
    > "$tmp/answers.t1" 2>/dev/null
"$serve" --pack "$tmp/demo.pack" --threads 2 --batch 7 \
    < "$tmp/grid_queries" > "$tmp/answers.t2" 2>/dev/null
if [ "$(wc -l < "$tmp/answers.t1")" -ne 36 ]; then
    echo "FAIL: serve --threads 1 answered $(wc -l < "$tmp/answers.t1") of 36"
    fails=1
elif ! cmp -s "$tmp/answers.t1" "$tmp/answers.t2"; then
    echo "FAIL: serve answers differ between --threads 1 and 2"
    fails=1
else
    echo "ok: serve --threads 1 and 2 answers are identical"
fi

# Inexact JSON numbers are fatal with the line number, never
# truncated into a different query: a fraction, and a value past
# 2^53 (whose conversion to an integer would be undefined).
expect_inexact() {
    desc="$1"
    key="$2"
    printf '%s\n%s\n' \
        '{"machine": "demo", "bytes": 4096, "ws": 0, "stride": 2}' \
        "$3" | "$serve" --pack "$tmp/demo.pack" >/dev/null 2>"$tmp/err"
    code=$?
    if [ "$code" -ne 1 ]; then
        echo "FAIL: $desc: exit $code, expected 1"
        fails=1
    elif ! grep -q "query line 2: '$key'" "$tmp/err"; then
        echo "FAIL: $desc: diagnostic does not name line 2 and '$key'"
        cat "$tmp/err"
        fails=1
    else
        echo "ok: $desc"
    fi
}
expect_inexact "fractional JSON number is fatal" bytes \
    '{"machine": "demo", "bytes": 4096.9, "ws": 0, "stride": 2.7}'
expect_inexact "JSON number past 2^53 is fatal" stride \
    '{"machine": "demo", "bytes": 4096, "ws": 0, "stride": 1.5e30}'

# Unknown machines are fatal with a diagnostic, not silent.
echo '{"machine": "sp2", "bytes": 8, "ws": 8, "stride": 1}' |
    "$serve" --pack "$tmp/demo.pack" >/dev/null 2>"$tmp/err"
if [ $? -ne 1 ] || ! grep -q "unknown machine 'sp2'" "$tmp/err"; then
    echo "FAIL: unknown machine did not die with a diagnostic"
    fails=1
else
    echo "ok: unknown machine is a clear error"
fi

# A JSON number is RFC 8259's grammar as a whole token: the old
# reader took the longest strtod prefix ("1-2" as 1, "-" as 0) and
# answered a different query.  Exit 2 names the line and the byte.
expect_bad_number() {
    printf '%s\n%s\n' \
        '{"machine": "demo", "bytes": 4096, "ws": 0, "stride": 2}' \
        "{\"machine\": \"demo\", \"bytes\": $1, \"ws\": 8, \"stride\": 1}" |
        "$serve" --pack "$tmp/demo.pack" >/dev/null 2>"$tmp/err"
    code=$?
    if [ "$code" -ne 2 ]; then
        echo "FAIL: JSON number '$1': exit $code, expected 2"
        fails=1
    elif ! grep -q "query line 2: JSON error at byte 29: bad number" \
            "$tmp/err"; then
        echo "FAIL: JSON number '$1': diagnostic does not name line 2," \
             "byte 29 and a bad number"
        cat "$tmp/err"
        fails=1
    else
        echo "ok: JSON number '$1' is rejected"
    fi
}
for v in 1-2 - +7 1.2.3 01 .5 1e; do
    expect_bad_number "$v"
done

# The same queries spelled any other valid way get the canonical
# answers, byte for byte.
"$serve" --pack "$tmp/demo.pack" < "$tmp/queries" > "$tmp/canonical" \
    2>/dev/null
expect_canonical() {
    if ! "$serve" --pack "$tmp/demo.pack" > "$tmp/spelled" \
            2>"$tmp/err"; then
        echo "FAIL: $1: serve failed"
        cat "$tmp/err"
        fails=1
    elif ! cmp -s "$tmp/canonical" "$tmp/spelled"; then
        echo "FAIL: $1: answers differ from the canonical spelling"
        fails=1
    else
        echo "ok: $1"
    fi
}
q1='{"machine": "demo", "bytes": 1048576, "ws": 1048576, "stride": 8}'
q3='{"machine": "demo", "bytes": 2048, "ws": 1024, "stride": 1}'
{
    printf '%s\n' "$q1"
    printf '%s' '{"machine": "demo", "bytes": 1048'
    sleep 0.3
    printf '%s\n%s\n' '576, "ws": 1048576, "stride": 8}' "$q3"
} | expect_canonical "a query split across two pipe writes"
printf '%s\n%s\n%s' "$q1" "$q1" "$q3" |
    expect_canonical "a final line with no newline"
printf '%s\r\n%s\r\n\r\n%s\r\n' "$q1" "$q1" "$q3" |
    expect_canonical "CRLF line endings"
printf '%s\n' \
    '{"stride": 8, "ws": 1048576, "bytes": 1048576, "machine": "demo"}' \
    '  {"ws":1048576,"machine":"demo",  "stride":8,"bytes":1048576 }  ' \
    '{"bytes": 2048, "stride": 1, "machine": "demo", "ws": 1024}' |
    expect_canonical "reordered keys and extra whitespace"
printf '%s\n' \
    '{"machine": "demo", "tag": {"a": [1, {"b": null}]}, "bytes": 1048576, "ws": 1048576, "stride": 8}' \
    '{"machine": "demo", "bytes": 1048576, "ws": 1048576, "stride": 8, "hist": [[1, 2], {"x": "y"}, true]}' \
    '{"machine": "demo", "bytes": 2048, "ws": 1024, "stride": 1, "note": "x\"y"}' |
    expect_canonical "unknown keys holding nested arrays and objects"
printf '%s\n' \
    '{"machine": "d\u0065mo", "bytes": 1048576, "ws": 1048576, "stride": 8}' \
    '{"m\u0061chine": "demo", "bytes": 1048576, "ws": 1048576, "stride": 8}' \
    '{"machine": "\u0064\u0065\u006d\u006f", "by\u0074es": 2048, "ws": 1024, "stride": 1}' |
    expect_canonical "escaped machine names and keys"
printf '%s\n' \
    '{"machine": "demo", "bytes": 1048576, "bytes": 7, "ws": 1048576, "stride": 8}' \
    '{"machine": "demo", "machine": "sp2", "bytes": 1048576, "ws": 1048576, "stride": 8}' \
    '{"stride": 1, "machine": "demo", "bytes": 2048, "ws": 1024, "stride": 64}' |
    expect_canonical "a duplicate key keeps its first value"

# An answer line is written whole however long the machine name and
# option label are (a fixed 256-byte buffer once cut such lines short
# and dropped their newline).
long=$(printf 'm%.0s' $(seq 150))
"$pack" --machine "$long" --surfaces "$tmp/surfaces" \
    --out "$tmp/long.pack" 2>/dev/null
printf '{"machine": "%s", "bytes": 8, "ws": 8, "stride": 1}\n' \
    "$long" "$long" |
    "$serve" --pack "$tmp/long.pack" > "$tmp/long.out" 2>/dev/null
if [ "$(grep -c '"seconds": [0-9.e+-]*}$' "$tmp/long.out")" -ne 2 ]; then
    echo "FAIL: answers for a 150-byte machine name are not whole lines"
    fails=1
else
    echo "ok: long machine names get whole answer lines"
fi

# A machine name holding a quote and a backslash comes back as one
# escaped JSON string (it was once written raw, breaking the line).
"$pack" --machine 'a"b\c' --surfaces "$tmp/surfaces" \
    --out "$tmp/quote.pack" 2>/dev/null
printf '%s\n' '{"machine": "a\"b\\c", "bytes": 8, "ws": 8, "stride": 1}' |
    "$serve" --pack "$tmp/quote.pack" > "$tmp/quote.out" 2>"$tmp/err"
if [ $? -ne 0 ]; then
    echo "FAIL: serve on a quoted machine name failed"
    cat "$tmp/err"
    fails=1
elif ! grep -qF '{"machine": "a\"b\\c", "option": "' "$tmp/quote.out"; then
    echo "FAIL: the machine name is not escaped in the answer"
    cat "$tmp/quote.out"
    fails=1
else
    echo "ok: machine names are escaped in answers"
fi

# serve answers a batch flushed by {"cmd": "metrics"} while its input
# stays open: the reader never waits past the current line, so a
# closed-loop client (one that waits for the answers before sending
# more) cannot deadlock it.
mkfifo "$tmp/live.fifo"
"$serve" --pack "$tmp/demo.pack" < "$tmp/live.fifo" > "$tmp/live.out" \
    2>/dev/null &
live_pid=$!
exec 3> "$tmp/live.fifo"
printf '%s\n%s\n' "$q1" '{"cmd": "metrics"}' >&3
i=0
while [ "$i" -lt 100 ] && [ "$(wc -l < "$tmp/live.out")" -lt 2 ]; do
    sleep 0.1
    i=$((i + 1))
done
live_lines=$(wc -l < "$tmp/live.out")
exec 3>&-
wait "$live_pid"
if [ "$live_lines" -lt 2 ]; then
    echo "FAIL: serve held a flushed answer until its input closed"
    fails=1
elif [ "$(head -1 "$tmp/live.out")" != "$(head -1 "$tmp/canonical")" ]; then
    echo "FAIL: the live answer differs from the canonical one"
    fails=1
else
    echo "ok: serve answers while its input stays open"
fi

# --binary framing (docs/planner_service.md): 32-byte GQRY records in,
# 32-byte GANS records out.  le32/le64 write host little-endian words.
le32() {
    v=$1
    for _ in 1 2 3 4; do
        printf "\\$(printf '%03o' $((v & 255)))"
        v=$((v >> 8))
    done
}
le64() {
    le32 $(($1 & 4294967295))
    le32 $(($1 >> 32))
}
# gqry <machine> <bytes> <ws> <stride>: one query record.
gqry() {
    printf 'GQRY'
    le32 "$1"
    le64 "$2"
    le64 "$3"
    le64 "$4"
}

# A second machine whose pull surface wins at a 1 KB working set and
# stride 1, so answers pick both option indices.
mkdir "$tmp/mix"
sed 's/^120.5 /500.5 /' "$tmp/surfaces/pull.surface" \
    > "$tmp/mix/pull.surface"
cp "$tmp/surfaces/fetch-sload.surface" "$tmp/mix/"
"$pack" --machine mix --surfaces "$tmp/mix" --out "$tmp/mix.pack" \
    2>/dev/null

# Parity: each binary answer carries the option index, method and
# doubles the JSON framing prints for the same query (the same
# doubles once parsed; awk compares the two spellings as numbers).
: > "$tmp/bin.queries"
: > "$tmp/bin.jsonl"
n=0
for m in 0 1; do
    for ws in 1024 3000 1048576; do
        for st in 1 8 20; do
            gqry "$m" $((ws * 2)) "$ws" "$st" >> "$tmp/bin.queries"
            name=demo
            [ "$m" -eq 1 ] && name=mix
            printf '{"machine": "%s", "bytes": %d, "ws": %d, "stride": %d}\n' \
                "$name" $((ws * 2)) "$ws" "$st" >> "$tmp/bin.jsonl"
            n=$((n + 1))
        done
    done
done
"$serve" --pack "$tmp/demo.pack" --pack "$tmp/mix.pack" --binary \
    < "$tmp/bin.queries" > "$tmp/bin.answers" 2>"$tmp/err"
bin_code=$?
"$serve" --pack "$tmp/demo.pack" --pack "$tmp/mix.pack" \
    < "$tmp/bin.jsonl" > "$tmp/bin.json_answers" 2>/dev/null
# One line per record: magic optionIndex method strideOnSource mbs
# seconds, from od's fields.
i=0
: > "$tmp/bin.decoded"
while [ "$i" -lt "$n" ]; do
    at=$((32 * i))
    words=$(od -A n -v -t u4 -j "$at" -N 8 "$tmp/bin.answers")
    doubles=$(od -A n -v -t f8 -j $((at + 8)) -N 16 "$tmp/bin.answers")
    flags=$(od -A n -v -t u1 -j $((at + 24)) -N 2 "$tmp/bin.answers")
    echo $words $flags $doubles >> "$tmp/bin.decoded"
    i=$((i + 1))
done
# JSON: option index (fetch-sload is 0, pull 1 in both packs), method
# code (0 pull, 1 fetch, 2 deposit), strideOnSource, mbs, seconds.
sed -e 's/.*"option": "fetch-sload".*"method": "\([a-z-]*\)".*"strideOnSource": \([a-z]*\), "mbs": \([^,]*\), "seconds": \([^}]*\)}/0 \1 \2 \3 \4/' \
    -e 's/.*"option": "pull".*"method": "\([a-z-]*\)".*"strideOnSource": \([a-z]*\), "mbs": \([^,]*\), "seconds": \([^}]*\)}/1 \1 \2 \3 \4/' \
    "$tmp/bin.json_answers" |
    sed -e 's/ coherent-pull / 0 /' -e 's/ fetch / 1 /' \
        -e 's/ deposit / 2 /' -e 's/ true / 1 /' -e 's/ false / 0 /' \
    > "$tmp/bin.json_decoded"
mismatch=$(paste -d ' ' "$tmp/bin.decoded" "$tmp/bin.json_decoded" |
    awk '$1 != 1397637447 || $2 != $7 || $3 != $8 || $4 != $9 ||
         $5 != $10 || $6 != $11 { print NR }')
picked=$(cut -d ' ' -f 2 "$tmp/bin.decoded" | sort -u | tr '\n' ' ')
if [ "$bin_code" -ne 0 ]; then
    echo "FAIL: serve --binary failed (exit $bin_code)"
    cat "$tmp/err"
    fails=1
elif [ "$(wc -c < "$tmp/bin.answers")" -ne $((32 * n)) ]; then
    echo "FAIL: serve --binary wrote $(wc -c < "$tmp/bin.answers")" \
         "bytes for $n records"
    fails=1
elif [ "$(wc -l < "$tmp/bin.json_decoded")" -ne "$n" ] ||
        [ -n "$mismatch" ]; then
    echo "FAIL: binary and JSON answers differ (records: $mismatch)"
    paste -d ' ' "$tmp/bin.decoded" "$tmp/bin.json_decoded"
    fails=1
elif [ "$picked" != "0 1 " ]; then
    echo "FAIL: the parity queries picked options '$picked', not 0 and 1"
    fails=1
else
    echo "ok: serve --binary answers match the JSON framing's"
fi

# expect_binary_fatal <description> <message> <serve args...>: the
# records on stdin ($tmp/bin.bad) exit 1 with a message on stderr.
expect_binary_fatal() {
    desc="$1"
    message="$2"
    shift 2
    "$serve" --pack "$tmp/demo.pack" --pack "$tmp/mix.pack" --binary \
        "$@" < "$tmp/bin.bad" >/dev/null 2>"$tmp/err"
    code=$?
    if [ "$code" -ne 1 ]; then
        echo "FAIL: $desc: exit $code, expected 1"
        fails=1
    elif ! grep -qF "$message" "$tmp/err"; then
        echo "FAIL: $desc: stderr lacks '$message'"
        cat "$tmp/err"
        fails=1
    else
        echo "ok: $desc"
    fi
}
{ gqry 0 2048 1024 1; printf 'GQRX'; le32 0; le64 8; le64 8; le64 1; } \
    > "$tmp/bin.bad"
expect_binary_fatal "binary bad magic names the record" \
    "serve: binary record 2: bad magic 1481789767; expected GQRY"
{ gqry 1 2048 1024 1; gqry 2 2048 1024 1; } > "$tmp/bin.bad"
expect_binary_fatal "binary machine id out of range names the record" \
    "serve: binary record 2: machine id 2 out of range (2 loaded)"
{ gqry 0 2048 1024 1; printf 'GQRY0'; } > "$tmp/bin.bad"
expect_binary_fatal "truncated binary record is fatal" \
    "serve: truncated binary request after record 1: trailing 5 byte(s)" \
    --batch 1

# Telemetry differential: answers must be byte-identical with the
# full telemetry stack on (metrics file, trace spans, slow-query log)
# versus everything off.  A plan query takes well under a
# microsecond, so --slow-query-us 1 logs one only when its span
# crosses a microsecond tick; the stream is long enough (2160
# queries) to make some records certain.
for i in $(seq 60); do cat "$tmp/grid_queries"; done > "$tmp/many_queries"
"$serve" --pack "$tmp/demo.pack" < "$tmp/many_queries" \
    > "$tmp/answers.off" 2>/dev/null
"$serve" --pack "$tmp/demo.pack" --metrics-out "$tmp/serve.prom" \
    --slow-query-us 1 --trace-out "$tmp/serve.trace.json" \
    < "$tmp/many_queries" > "$tmp/answers.on" 2>"$tmp/err"
if ! cmp -s "$tmp/answers.off" "$tmp/answers.on"; then
    echo "FAIL: answers differ with telemetry on"
    fails=1
else
    echo "ok: telemetry does not perturb answers"
fi

# The exposition file is valid Prometheus text and counts every
# query; the slow-query log produced structured records.
if ! "$(dirname "$0")/check_metrics.sh" "$tmp/serve.prom" \
        gasnub_serve_requests 2160; then
    echo "FAIL: serve --metrics-out exposition invalid or wrong count"
    fails=1
else
    echo "ok: serve --metrics-out exposition validates"
fi
if ! grep -q "slow_query id=.* machine=demo .*us=" "$tmp/err"; then
    echo "FAIL: no structured slow-query record on stderr"
    fails=1
else
    echo "ok: slow-query log emits structured records"
fi
if ! grep -q '"traceEvents"' "$tmp/serve.trace.json"; then
    echo "FAIL: --trace-out is not a Chrome trace"
    fails=1
else
    echo "ok: serve --trace-out writes query spans"
fi

# A {"cmd": "metrics"} control line mid-stream answers the queued
# queries first, then emits one compact JSON exposition line that
# reflects the queries answered so far.
{
    head -2 "$tmp/queries"
    echo '{"cmd": "metrics"}'
    tail -1 "$tmp/queries"
} | "$serve" --pack "$tmp/demo.pack" --slow-query-us 999999999 \
    > "$tmp/midrun" 2>/dev/null
dump=$(grep '"metrics"' "$tmp/midrun")
if [ "$(wc -l < "$tmp/midrun")" -ne 4 ]; then
    echo "FAIL: mid-run dump: expected 3 answers + 1 metrics line"
    fails=1
elif [ -z "$dump" ]; then
    echo "FAIL: mid-run dump has no metrics line"
    fails=1
elif ! echo "$dump" | grep -q '"name": "serve.requests", "desc": [^,]*, "type": "counter", "value": 2'; then
    echo "FAIL: mid-run dump does not show the 2 queries served so far"
    fails=1
elif ! echo "$dump" | grep -q '"name": "serve.latency_us"'; then
    echo "FAIL: mid-run dump is missing the latency histogram"
    fails=1
else
    echo "ok: mid-run {\"cmd\": \"metrics\"} dump parses"
fi

# GASNUB_LOG_TIMESTAMPS prefixes service-log lines without touching
# stdout answers.
GASNUB_LOG_TIMESTAMPS=1 "$serve" --pack "$tmp/demo.pack" \
    --slow-query-us 1 < "$tmp/many_queries" > "$tmp/answers.ts" \
    2>"$tmp/err.ts"
if ! cmp -s "$tmp/answers.off" "$tmp/answers.ts"; then
    echo "FAIL: answers differ under GASNUB_LOG_TIMESTAMPS"
    fails=1
elif ! grep -q '^\[[0-9]*\.[0-9]*\] log: slow_query' "$tmp/err.ts"; then
    echo "FAIL: no timestamp prefix on slow-query records"
    fails=1
else
    echo "ok: GASNUB_LOG_TIMESTAMPS prefixes logs, not answers"
fi

# One host clock: log prefixes and --trace-out spans share a time
# origin.  Query N's slow_query line is logged after span N ends and,
# with one query per batch, before span N+1 starts.  Times compare in
# whole microseconds: "[s.us]" prefixes, span "ts"/"dur" in us.
GASNUB_LOG_TIMESTAMPS=1 "$serve" --pack "$tmp/demo.pack" --batch 1 \
    --slow-query-us 1 --trace-out "$tmp/clock.json" \
    < "$tmp/many_queries" > /dev/null 2>"$tmp/err.clock"
sed -n 's/.*"ts":\([0-9]*\)\.[0-9]*,"dur":\([0-9]*\)\.[0-9]*,"args":{"id":\([0-9]*\),.*/span \3 \1 \2/p' \
    "$tmp/clock.json" > "$tmp/clock.events"
sed -n 's/^\[\([0-9]*\)\.\([0-9]*\)\] log: slow_query id=\([0-9]*\) .*/log \3 \1 \2/p' \
    "$tmp/err.clock" >> "$tmp/clock.events"
if ! awk '
    $1 == "span" { start[$2] = $3; end[$2] = $3 + $4; next }
    {
        t = $3 * 1000000 + $4; logs++
        if (!($2 in end) || t < end[$2]) bad++
        if (($2 + 1) in start && t > start[$2 + 1]) bad++
    }
    END { exit !(logs > 0 && bad == 0) }' "$tmp/clock.events"; then
    echo "FAIL: slow-query timestamps and trace spans disagree on time"
    fails=1
else
    echo "ok: slow-query log and trace spans share one clock"
fi

# loadgen: a deterministic mix reports queries, qps, percentiles,
# and the same answer checksum on every run.
out=$("$loadgen" --pack "$tmp/demo.pack" --queries 5000 \
      --threads 2 --mix hot --seed 7 --json 2>"$tmp/err")
if [ $? -ne 0 ]; then
    echo "FAIL: loadgen run failed"
    cat "$tmp/err"
    fails=1
elif ! echo "$out" | grep -q '"queries": 5000'; then
    echo "FAIL: loadgen did not issue all queries"
    fails=1
elif ! echo "$out" | grep -q '"p99_ns"'; then
    echo "FAIL: loadgen JSON has no tail percentile"
    fails=1
else
    echo "ok: loadgen --json"
fi
# The query stream is a pure function of (seed, mix), so a repeat
# run — and a run on a different number of threads — must produce
# the same answer checksum.
sum1=$(echo "$out" | sed 's/.*"checksum": "\([0-9a-f]*\)".*/\1/')
out=$("$loadgen" --pack "$tmp/demo.pack" --queries 5000 \
      --threads 2 --mix hot --seed 7 --json 2>/dev/null)
sum2=$(echo "$out" | sed 's/.*"checksum": "\([0-9a-f]*\)".*/\1/')
out=$("$loadgen" --pack "$tmp/demo.pack" --queries 5000 \
      --threads 1 --mix hot --seed 7 --json 2>/dev/null)
sum3=$(echo "$out" | sed 's/.*"checksum": "\([0-9a-f]*\)".*/\1/')
if [ -z "$sum1" ] || [ "$sum1" != "$sum2" ]; then
    echo "FAIL: loadgen checksum varies across runs ($sum1 vs $sum2)"
    fails=1
elif [ "$sum1" != "$sum3" ]; then
    echo "FAIL: loadgen checksum differs with --threads 1 ($sum1 vs $sum3)"
    fails=1
else
    echo "ok: loadgen checksum is reproducible across runs and --threads"
fi

# loadgen telemetry: the exposition counter equals the completed
# count exactly, the checksum is unchanged by telemetry, and the
# timeline is JSON lines from the same registry.
out=$("$loadgen" --pack "$tmp/demo.pack" --queries 5000 \
      --threads 2 --mix hot --seed 7 --json \
      --metrics-out "$tmp/lg.prom" --timeline "$tmp/lg.timeline" \
      2>/dev/null)
sum4=$(echo "$out" | sed 's/.*"checksum": "\([0-9a-f]*\)".*/\1/')
if [ "$sum1" != "$sum4" ]; then
    echo "FAIL: loadgen answers differ with telemetry on"
    fails=1
else
    echo "ok: loadgen telemetry does not perturb answers"
fi
if ! "$(dirname "$0")/check_metrics.sh" "$tmp/lg.prom" \
        gasnub_loadgen_queries 5000; then
    echo "FAIL: loadgen --metrics-out exposition invalid or wrong count"
    fails=1
else
    echo "ok: loadgen --metrics-out counter matches completed queries"
fi
if [ ! -s "$tmp/lg.timeline" ] ||
        ! tail -1 "$tmp/lg.timeline" |
            grep -q '"completed": 5000.*"p99_us"'; then
    echo "FAIL: loadgen --timeline final row is wrong"
    cat "$tmp/lg.timeline"
    fails=1
else
    echo "ok: loadgen --timeline ends at the completed count"
fi

exit $fails
