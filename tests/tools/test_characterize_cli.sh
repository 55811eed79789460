#!/bin/sh
# CLI contract tests for the characterize tool: malformed command
# lines exit with code 2 and an error on stderr, valid ones exit 0;
# plus the report tool's JSON output over a hand-written ledger and
# the options of two figure benches, a single-machine one and an FFT
# one.
# Usage: test_characterize_cli.sh /path/to/characterize /path/to/report \
#            /path/to/fig05_t3d_deposit /path/to/fig15_fft_overall
set -u

bin="$1"
report="$2"
fig="$3"
fft="$4"
fails=0
err=$(mktemp)
trap 'rm -f "$err"' EXIT

# expect_usage <description> <args...>: must exit 2 with stderr text.
expect_usage() {
    desc="$1"
    shift
    "$bin" "$@" >/dev/null 2>"$err"
    code=$?
    if [ "$code" -ne 2 ]; then
        echo "FAIL: $desc: exit $code, expected 2"
        fails=1
    elif [ ! -s "$err" ]; then
        echo "FAIL: $desc: no error message on stderr"
        fails=1
    else
        echo "ok: $desc"
    fi
}

expect_usage "no arguments"
expect_usage "unknown machine" vax loads
expect_usage "unknown benchmark" t3e flops
expect_usage "unknown option" t3e loads --bogus 1
expect_usage "malformed --procs" t3e loads --procs=abc
expect_usage "zero --jobs" t3e loads --jobs 0
expect_usage "empty --out value" t3e loads --out=
expect_usage "missing --max-ws value" t3e loads --max-ws
expect_usage "option as option value" t3e loads --cap --out
expect_usage "stray positional argument" t3e loads extra

if ! "$bin" t3e loads --procs=abc 2>&1 >/dev/null |
        grep -q "bad value 'abc'"; then
    echo "FAIL: --procs=abc: expected a 'bad value' message"
    fails=1
else
    echo "ok: --procs=abc names the bad value"
fi

# The simulated machines are fault-free: there is no --faults option.
"$bin" t3e loads --max-ws 16K --faults 'seed=1' >/dev/null 2>"$err"
code=$?
if [ "$code" -ne 2 ] || ! grep -qF "unknown option '--faults'" "$err"; then
    echo "FAIL: --faults: exit $code, expected 2 naming the option"
    fails=1
else
    echo "ok: --faults is an unknown option"
fi

# expect_bad_value <binary> <option> <value> [args...]: a malformed
# numeric value exits 2 with a message naming the option and value.
expect_bad_value() {
    tool="$1"
    opt="$2"
    value="$3"
    shift 3
    name=$(basename "$tool")
    "$tool" "$@" "$opt" "$value" >/dev/null 2>"$err"
    code=$?
    if [ "$code" -ne 2 ]; then
        echo "FAIL: $name $opt '$value': exit $code, expected 2"
        fails=1
    elif ! grep -qF "bad value '$value' for $opt" "$err"; then
        echo "FAIL: $name $opt '$value': message does not name them"
        fails=1
    else
        echo "ok: $name $opt '$value' rejected"
    fi
}

for v in 4x 1e3 -1 "" 99999 " 2"; do
    expect_bad_value "$bin" --jobs "$v" t3e loads
done
for v in abc -3 4097; do
    "$bin" t3e loads "--jobs=$v" >/dev/null 2>"$err"
    code=$?
    if [ "$code" -ne 2 ] ||
            ! grep -qF "bad value '$v' for --jobs" "$err"; then
        echo "FAIL: characterize --jobs=$v: exit $code"
        fails=1
    else
        echo "ok: characterize --jobs=$v rejected"
    fi
done

# --help (anywhere on the command line) prints the usage and the
# planner pipeline walkthrough to stdout and exits 0.
for args in "--help" "-h" "t3e loads --help"; do
    # shellcheck disable=SC2086
    out=$("$bin" $args 2>"$err")
    code=$?
    if [ "$code" -ne 0 ]; then
        echo "FAIL: $args: exit $code, expected 0"
        fails=1
    elif ! echo "$out" | grep -q "usage: characterize"; then
        echo "FAIL: $args: no usage text on stdout"
        fails=1
    elif ! echo "$out" | grep -q "loadPlannerDir"; then
        echo "FAIL: $args: no planner pipeline walkthrough"
        fails=1
    else
        echo "ok: $args"
    fi
done

# A valid tiny run (both --opt=value and --opt value forms) succeeds
# and prints a surface.
out=$("$bin" t3e loads --max-ws=4K --cap 4K --jobs 2 2>"$err")
code=$?
if [ "$code" -ne 0 ]; then
    echo "FAIL: valid run: exit $code"
    cat "$err"
    fails=1
elif [ -z "$out" ]; then
    echo "FAIL: valid run printed no surface"
    fails=1
else
    echo "ok: valid run"
fi

# --help documents that --stats-json and --attribution output is
# byte-identical at any --jobs level.
if ! "$bin" --help | grep -q "byte-identical"; then
    echo "FAIL: --help does not document --stats-json byte-identity"
    fails=1
else
    echo "ok: --help documents byte-identity"
fi

# --attribution writes a v2 surface whose bytes (and the --stats-json
# ledger's) do not depend on --jobs.
tmp=$(mktemp -d)
trap 'rm -f "$err"; rm -rf "$tmp"' EXIT
for j in 1 4; do
    if ! "$bin" t3e loads --max-ws=8K --cap 4K --attribution \
            --jobs "$j" --out "$tmp/s$j" \
            --stats-json "$tmp/j$j" >/dev/null 2>"$err"; then
        echo "FAIL: --attribution --jobs $j run failed"
        cat "$err"
        fails=1
    fi
done
if ! head -1 "$tmp/s1" | grep -q "^gasnub-surface 2$"; then
    echo "FAIL: --attribution surface is not format version 2"
    fails=1
elif ! grep -q "^attribution " "$tmp/s1"; then
    echo "FAIL: --attribution surface has no attribution section"
    fails=1
else
    echo "ok: --attribution writes a v2 surface"
fi
if ! cmp -s "$tmp/s1" "$tmp/s4"; then
    echo "FAIL: attribution surface differs between --jobs 1 and 4"
    fails=1
elif ! cmp -s "$tmp/j1" "$tmp/j4"; then
    echo "FAIL: --stats-json differs between --jobs 1 and 4"
    fails=1
else
    echo "ok: --jobs 1 and --jobs 4 are byte-identical"
fi

# --profile must not perturb the measured surface or the stats tree
# (byte-identical with and without, serial and parallel): the profiler
# is the only host-time channel.  Its stderr report names the sweep
# hot path and gives each thread's busy time.
for jobs in 1 2; do
    if ! "$bin" t3e loads --max-ws=8K --cap 4K --jobs $jobs \
            --out "$tmp/plain" \
            --stats-json "$tmp/jplain" >/dev/null 2>"$err"; then
        echo "FAIL: plain run for --profile comparison failed"
        cat "$err"
        fails=1
    fi
    if ! "$bin" t3e loads --max-ws=8K --cap 4K --jobs $jobs --profile \
            --out "$tmp/profiled" \
            --stats-json "$tmp/jprof" >/dev/null 2>"$err"; then
        echo "FAIL: --profile run failed"
        cat "$err"
        fails=1
    fi
    if ! cmp -s "$tmp/plain" "$tmp/profiled"; then
        echo "FAIL: --profile perturbed the measured surface (--jobs $jobs)"
        fails=1
    elif ! cmp -s "$tmp/jplain" "$tmp/jprof"; then
        echo "FAIL: --profile changed --stats-json (--jobs $jobs)"
        fails=1
    elif ! grep -q "== profile:" "$err"; then
        echo "FAIL: --profile printed no zone report"
        fails=1
    elif ! grep -q "sweep.localLoads;point" "$err"; then
        echo "FAIL: profile report does not name the sweep hot path"
        fails=1
    elif ! grep -Eq '^ *[0-9]+\.[0-9]+ +[1-9][0-9]*  thread [0-9]+$' \
            "$err"; then
        echo "FAIL: profile report has no per-thread busy line"
        fails=1
    else
        echo "ok: --profile (--jobs $jobs) leaves surface and stats" \
             "byte-identical"
    fi
done

# GASNUB_PROFILE=1 enables the same report without the flag.
if ! GASNUB_PROFILE=1 "$bin" t3e loads --max-ws=4K --cap 4K \
        --jobs 1 >/dev/null 2>"$err" || \
        ! grep -q "== profile:" "$err"; then
    echo "FAIL: GASNUB_PROFILE=1 did not enable profiling"
    fails=1
else
    echo "ok: GASNUB_PROFILE=1 enables profiling"
fi

# The figure benches' options fail loudly: a malformed --jobs value,
# a space-form option or an unknown argument exits 2 before any sweep.
for v in abc 4x 0 -3 ""; do
    "$fig" "--jobs=$v" >/dev/null 2>"$err"
    code=$?
    if [ "$code" -ne 2 ] ||
            ! grep -qF "bad value '$v' for --jobs" "$err"; then
        echo "FAIL: fig05 --jobs=$v: exit $code"
        fails=1
    else
        echo "ok: fig05 --jobs=$v rejected"
    fi
done
for args in "--stats-json $tmp/space.json" "--bogus" "full --bogus"; do
    # shellcheck disable=SC2086
    "$fig" $args >/dev/null 2>"$err"
    code=$?
    if [ "$code" -ne 2 ] || ! grep -q "unknown argument" "$err"; then
        echo "FAIL: fig05 $args: exit $code, expected 2"
        fails=1
    else
        echo "ok: fig05 $args rejected"
    fi
done

# A valid run prints the same figure at any --jobs, and an output
# file that cannot be opened fails the run instead of being reported.
if ! "$fig" --jobs=1 > "$tmp/fig1" 2>"$err" ||
        ! "$fig" --jobs=2 > "$tmp/fig2" 2>>"$err"; then
    echo "FAIL: fig05 valid run failed"
    cat "$err"
    fails=1
elif ! grep -q "^Figure 5 " "$tmp/fig1" ||
        ! cmp -s "$tmp/fig1" "$tmp/fig2"; then
    echo "FAIL: fig05 output differs between --jobs=1 and --jobs=2"
    fails=1
else
    echo "ok: fig05 --jobs=1 and --jobs=2 print the same figure"
fi
for opt in --stats-json --trace-out; do
    if "$fig" --jobs=2 "$opt=$tmp/missing/out.json" >/dev/null \
            2>"$err" || ! grep -qF "cannot open" "$err"; then
        echo "FAIL: fig05 $opt into a missing directory did not fail"
        fails=1
    else
        echo "ok: fig05 $opt into a missing directory fails"
    fi
done

# The FFT figures build their machines on worker threads and keep no
# trace or stats: those options exit 2 naming the option and write
# nothing, while --profile prints the profile.
for opt in --stats-json --trace-out --trace-categories; do
    "$fft" --jobs=2 "$opt=$tmp/fft.out" >/dev/null 2>"$err"
    code=$?
    if [ "$code" -ne 2 ] || ! grep -qF -- "$opt=" "$err" ||
            [ -e "$tmp/fft.out" ]; then
        echo "FAIL: fig15 $opt=: exit $code, expected 2 naming it"
        fails=1
    else
        echo "ok: fig15 $opt= rejected"
    fi
done
if ! "$fft" --jobs=2 --profile >/dev/null 2>"$err" ||
        ! grep -q "== profile:" "$err"; then
    echo "FAIL: fig15 --profile printed no profile"
    fails=1
else
    echo "ok: fig15 --profile prints the profile"
fi

# report --format json escapes what it read: a ledger whose stat and
# resource names hold a newline and a tab still yields one valid line.
cat > "$tmp/ledger.json" <<'EOF'
{"name":"","stats":[{"name":"ledger\nA","type":"timeAccount","desc":"",
"resources":[{"name":"dram\tbank","busyTicks":30,"stallTicks":0},
{"name":"nic","busyTicks":10,"stallTicks":0}]}],"groups":[]}
EOF
if ! "$report" --stats-json "$tmp/ledger.json" --format json \
        > "$tmp/report.json" 2>"$err"; then
    echo "FAIL: report over a hand-written ledger failed"
    cat "$err"
    fails=1
elif [ "$(wc -l < "$tmp/report.json")" -ne 1 ]; then
    echo "FAIL: report --format json printed more than one line"
    fails=1
elif LC_ALL=C tr -d '\n' < "$tmp/report.json" |
        LC_ALL=C grep -q '[[:cntrl:]]'; then
    echo "FAIL: report --format json printed raw control bytes"
    fails=1
elif ! grep -qF '"title":"ledger\nA"' "$tmp/report.json" ||
        ! grep -qF '"resource":"dram\tbank"' "$tmp/report.json"; then
    echo "FAIL: report --format json did not escape the names"
    fails=1
else
    echo "ok: report --format json escapes ledger names"
fi

exit $fails
