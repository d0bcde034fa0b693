#!/usr/bin/env bash
# Cold CLI commands of an installed gibbsrates, each run as
# "PYTHON -m gibbsrates ...".  Run it from outside the checkout, so the
# installed package is the one imported:
#
#     bash .github/cold-cli.sh PYTHON
#
# Any non-zero exit, or any exit code other than the one a refusal below
# expects, fails the script.
set -euo pipefail
py="$1"

run() {
    "$py" -m gibbsrates "$@" > /dev/null
}

# expect CODE ARGS...: the command is refused with exit CODE within 20 s.
expect() {
    local code="$1" rc=0
    shift
    timeout 20 "$py" -m gibbsrates "$@" > /dev/null 2>&1 || rc=$?
    test "$rc" -eq "$code"
}

# The six commands of the benchmark's cli-cold workload.
run scan-compare --n 100
run rosenthal --n 100
run pg-demo
run exact-tv --family bb --n 100 --start 0 --steps-max 400 --target 0.01
run spectral --levels --family bb --n 100
run simulate --decay --family bb --n 100 --scan random --start-x 0 --start-theta 0 --steps 10 --samples 10000 --seed 1
# A short dense Poisson-gamma curve; three long curves, whose tails take
# the single-level closed form and whose reports print 10^5 and 2*10^4 rows
# through the block renderer (the n = 50 JSON report has the most
# subnormal cells of any benchmark report); the worst-start search at the
# largest n; and the exact curve at the dense-state cap, n = 10 000.
run exact-tv --family pg --start 64 --steps-max 400
run scan-compare --n 200 --steps-max 100000 --format csv
run scan-compare --n 50 --steps-max 100000 --format json
run exact-tv --family bb --n 2000 --start 0 --steps-max 20000
run scan-compare --n 2000 --steps-max 6000
run exact-tv --family bb --n 10000 --start 0 --steps-max 20000
# The worst-start certificate decides every start at n = 2000 and target
# 1e-6 (one curve, about 0.1 s; a margin for a dense chain failed 537
# starts there and took about 26 s).  pg-demo's far starts take the dense
# fallback: at x_max 1200 their mass underflows, and at x_max 2400 the
# certificate leaves the starts whose sqrt(m) is not a normal float
# unknown.  A target below the dense curve's floating-point floor is
# refused with exit 3.
timeout 20 "$py" -m gibbsrates scan-compare --n 2000 --steps-max 80200 --target 1e-6 > /dev/null
timeout 20 "$py" -m gibbsrates pg-demo --shape 0.5 --rate 3 --x-max 1200 --j-list 0,500,560 > /dev/null
timeout 20 "$py" -m gibbsrates pg-demo --shape 0.5 --rate 3 --x-max 2400 --j-list 0,8,1014,1019,1045,1072 > /dev/null
expect 3 pg-demo --j-list 0,8 --target 1e-20
# An untenable truncation is refused (exit 3) in well under a second at
# any x_max; a sum over the tail's masses would take minutes.
expect 3 pg-demo --x-max 1000000000 --rate 1e-8
# Long Poisson-gamma curves stop once the dense loop's scaled law repeats
# (step 129 and 513 here), in under 2 s; computing the whole horizon took
# 16 and 62 s.  A timeout (exit 124) fails.
timeout 20 "$py" -m gibbsrates exact-tv --family pg --x-max 1600 --start 0 --steps-max 20000 > /dev/null
timeout 20 "$py" -m gibbsrates exact-tv --family pg --shape 0.3 --rate 0.2 --x-max 3000 --start 100 --steps-max 20000 > /dev/null
# The decay cross-check of a long-report command; a 10^12-replica decay is
# refused (exit 2) before any replica array exists; and a reader that
# closes stdout early ends the command with exit 141 and nothing on stderr.
timeout 20 "$py" -m gibbsrates scan-compare --n 100 --target 0.01 --decay-samples 100000 --seed 7 > /dev/null
expect 2 simulate --decay --family bb --n 100 --scan random --start-x 0 --start-theta 0 --steps 10 --samples 1000000000000
rc=0
timeout 20 "$py" -m gibbsrates scan-compare --n 100 --steps-max 20000 --format csv 2> pipe.err | head -1 > /dev/null || rc=$?
test "$rc" -eq 141
test ! -s pipe.err
