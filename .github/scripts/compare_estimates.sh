#!/bin/sh
# Fit one fixed simulated corpus with two source trees and print which
# estimate JSONs differ. Report only: differences do not fail the run.
#
#   sh compare_estimates.sh BASE_TREE HEAD_TREE WORKDIR
#
# Each tree is a checkout whose src/ holds spraylink. The corpus, simulated
# once with HEAD_TREE: the four criterion-10 distances at 1001 samples and
# sigma = 0.01 V, plus one 20001-sample trace.
set -eu
base=$1
head=$2
work=$3
mkdir -p "$work/traces" "$work/base" "$work/head"

# name, distance s, then the simulate arguments of each trace
corpus='s0.9 0.9 --k1 3.0 --k2 0.5 --gamma 2.0 --noise 0.01 --seed 1
s1.0 1.0 --k1 2.5 --k2 0.5 --gamma 3.0 --noise 0.01 --seed 2
s1.1 1.1 --k1 2.0 --k2 0.5 --gamma 4.0 --noise 0.01 --seed 3
s1.2 1.2 --k1 1.5 --k2 0.5 --gamma 5.0 --noise 0.01 --seed 4
s1.0_n20001 1.0 --k1 2.0 --k2 0.5 --gamma 3.0 --noise 0.01 --seed 5 --dt 0.0005'

echo "$corpus" | while read -r name s args; do
    # shellcheck disable=SC2086  # args is a list of words
    PYTHONPATH="$head/src" python -m spraylink.cli simulate --s "$s" $args --out "$work/traces/$name.csv" > /dev/null
done

for side in base head; do
    if [ "$side" = base ]; then tree=$base; else tree=$head; fi
    echo "$corpus" | while read -r name s args; do
        code=0
        PYTHONPATH="$tree/src" python -m spraylink.cli estimate "$work/traces/$name.csv" --s "$s" \
            --out "$work/$side/$name.json" > /dev/null 2>&1 || code=$?
        echo "$code" > "$work/$side/$name.exit"
    done
done

echo "$corpus" | while read -r name s args; do
    if cmp -s "$work/base/$name.json" "$work/head/$name.json" && cmp -s "$work/base/$name.exit" "$work/head/$name.exit"; then
        echo "same:    $name.json"
    else
        echo "differs: $name.json (exit $(cat "$work/base/$name.exit") -> $(cat "$work/head/$name.exit"))"
        diff "$work/base/$name.json" "$work/head/$name.json" || true
    fi
done
