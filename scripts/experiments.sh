#!/usr/bin/env bash
# The experiment scripts and the CLI at scale, as CI runs them after the
# tier-1 tests:
#
#     scripts/experiments.sh DIR
#
# DIR holds the files the checks write.  Run from any directory; each
# check that fails ends the script with a non-zero exit.
#
# Small sweeps, so a script that no longer runs against the library
# fails here; together they take about 20 s on a shared 2-vCPU VM.
# verify-theorem --max-N 10 checks the closed form on all 165 cells
# up to N=10 by the search over prefixes up to relabeling, which
# draws no row that a greedy matching already calls dead and skips
# most prefixes that it has expanded in another order of their rows
# (about 8.5 s; up to N=9, 13,563 states, of which the one matcher
# settles the 2,019 that the greedy and two counts leave open, where
# drawing every row tests 189,474 and takes about twice as long),
# and every match column must read true.
# The tier-1 tests compare that search with a plain prefix search
# on the 35 cells up to N=6.
# verify-theorem and two_pool_tightness.py exit 2 on a mismatch
# and 3 when a cell is skipped.  two_pool_tightness.py at
# --max-pool 7 searches all 259 two-type cells within the probe's
# size guard in well under a second, by the same class search,
# drawing each pool's part of a row on its own and none that a
# greedy matching already calls dead; its stdout, 260 CSV lines
# with \r\n line ends, is pinned by SHA-256, so a change that moves
# any searched optimum, bound or split fails here.  The degenerate
# two-pool cell N1=8, N2=0, n=4, g1=1 is the probe's largest
# search and must equal the single-pool h.  The
# instance commands also run at scale: the surviving 800 rows of
# the N=3200 optimal schedule, built without library code, pass
# check-p, reduce to 790 rows over 3160 ids, the batch formula's
# first 790 rows byte for byte, and pass again (about 0.2 s each);
# solve-adversary and reduce print to stdout the bytes they write
# with --out, and the surviving prefixes of the swapped schedule and
# of a seeded random one reduce to members whose files are pinned
# by SHA-256.  So are the kills that solve-adversary writes for the
# optimal, the swapped and the random schedule: they come from the
# maximum matching the scan finds, so a change to the scan or the
# matcher that finds another one, and so other kills, fails here even
# though those kills still replay.
set -eu
tmp=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
# The SHA-256 of a file, without relying on the platform's tools.
sha256() {
  python -c 'import hashlib, sys; print(hashlib.sha256(open(sys.argv[1], "rb").read()).hexdigest())' "$1"
}

# The CLI parses its flags from one command table: --help lists
# all 11 commands and exits 0, and a usage error (here two of
# opt's three required flags missing) exits 1 with empty stdout.
python -m faultsched --help > "$tmp/help.txt"
for c in h-eval opt gen-trivial eval solve-adversary check-p reduce verify-theorem \
         two-pool online-value sweep; do
  grep -q "^  $c " "$tmp/help.txt"
done
code=0
python -m faultsched opt --N 3 > "$tmp/usage.out" 2> /dev/null || code=$?
test "$code" -eq 1
test ! -s "$tmp/usage.out"
# Every guarded cell up to N=4, randomized (4,3,2) included, solves
# exactly in a few seconds; a solver change that moves a value, a
# support size or a gain fails the diff.
python scripts/online_value_table.py --max-N 4 > "$tmp/online.txt"
printf '%s\n' 'N n f deterministic randomized support gain' \
  '2 2 1 1 1 1 0' '3 2 1 1 3/2 2 1/2' '3 3 1 1 1 1 0' '3 3 2 2 2 1 0' \
  '4 2 1 2 9/4 4 1/4' '4 3 1 1 4/3 3 1/3' '4 3 2 2 8/3 3 2/3' \
  '4 4 1 1 1 1 0' '4 4 2 2 2 1 0' '4 4 3 3 3 1 0' | diff - "$tmp/online.txt"
# The randomized supports themselves, byte for byte, for six of the
# guarded cells (about 1 s): a change to either best response or to
# the LP's pivot rules that keeps the values but moves the double
# oracle's path, and so its support, fails the diff.
python -m faultsched online-value --N 3 --n 2 --f 1 --mode randomized \
  > "$tmp/online-321.txt"
printf '%s\n' 'value=3/2' 'support:' \
  'p=1/2 sets=[[1,2],[2,3],[1,2]]' \
  'p=1/2 sets=[[1,2],[1,3],[1,2]]' | diff - "$tmp/online-321.txt"
python -m faultsched online-value --N 4 --n 2 --f 1 --mode randomized \
  > "$tmp/online-421.txt"
printf '%s\n' 'value=9/4' 'support:' \
  'p=1/4 sets=[[2,3],[1,4],[3,4],[1,2]]' \
  'p=1/4 sets=[[2,3],[1,4],[2,4],[1,2]]' \
  'p=1/4 sets=[[2,3],[1,4],[1,3],[1,2]]' \
  'p=1/4 sets=[[2,3],[1,4],[1,2],[1,2]]' | diff - "$tmp/online-421.txt"
python -m faultsched online-value --N 4 --n 3 --f 1 --mode randomized \
  > "$tmp/online-431.txt"
printf '%s\n' 'value=4/3' 'support:' \
  'p=1/3 sets=[[1,2,3],[2,3,4],[1,2,3],[1,2,3]]' \
  'p=1/3 sets=[[1,2,3],[1,3,4],[1,2,3],[1,2,3]]' \
  'p=1/3 sets=[[1,2,3],[1,2,4],[1,2,3],[1,2,3]]' | diff - "$tmp/online-431.txt"
python -m faultsched online-value --N 4 --n 3 --f 2 --mode randomized \
  > "$tmp/online-432.txt"
printf '%s\n' 'value=8/3' 'support:' \
  'p=1/3 sets=[[1,2,3],[1,2,3],[2,3,4],[1,3,4]]' \
  'p=1/3 sets=[[1,2,3],[1,2,3],[1,3,4],[1,3,4]]' \
  'p=1/3 sets=[[1,2,3],[1,2,3],[1,2,4],[2,3,4]]' | diff - "$tmp/online-432.txt"
python -m faultsched online-value --N 5 --n 4 --f 1 --mode randomized \
  > "$tmp/online-541.txt"
printf '%s\n' 'value=5/4' 'support:' \
  'p=1/4 sets=[[2,3,4,5],[1,3,4,5],[1,2,3,4],[1,2,3,4],[1,2,3,4]]' \
  'p=1/4 sets=[[2,3,4,5],[1,2,4,5],[1,2,3,4],[1,2,3,4],[1,2,3,4]]' \
  'p=1/4 sets=[[2,3,4,5],[1,2,3,5],[1,2,3,4],[1,2,3,4],[1,2,3,4]]' \
  'p=1/4 sets=[[2,3,4,5],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4]]' \
  | diff - "$tmp/online-541.txt"
python -m faultsched online-value --N 5 --n 5 --f 4 --mode randomized \
  > "$tmp/online-554.txt"
printf '%s\n' 'value=4' 'support:' \
  'p=1 sets=[[1,2,3,4,5],[1,2,3,4,5],[1,2,3,4,5],[1,2,3,4,5],[1,2,3,4,5]]' \
  | diff - "$tmp/online-554.txt"
# Randomized (5,4,2) outgrows the double oracle's budget of 100,000
# payoff-matrix cells in about 1.5 s: exit 3, nothing on stdout, and
# the budget message on stderr.  The tier-1 tests reach exit 3 only
# under a lowered budget.
code=0
python -m faultsched online-value --N 5 --n 4 --f 2 --mode randomized \
  > "$tmp/online-542.out" 2> "$tmp/online-542.err" || code=$?
test "$code" -eq 3
test ! -s "$tmp/online-542.out"
test "$(tail -n 1 "$tmp/online-542.err")" = \
  "error: double oracle exceeded its budget of 100000 payoff-matrix cells over all LP solves"
# The deterministic value is the batch schedule with probability 1,
# printed byte for byte; the library keeps each repeated row as one
# shared tuple, and the printout must not show it.
python -m faultsched online-value --N 4 --n 2 --f 1 --mode deterministic \
  > "$tmp/online-421-det.txt"
printf '%s\n' 'value=2' 'support:' \
  'p=1 sets=[[1,2],[3,4],[3,4],[3,4]]' | diff - "$tmp/online-421-det.txt"
python -m faultsched online-value --N 5 --n 4 --f 3 --mode deterministic \
  > "$tmp/online-543-det.txt"
printf '%s\n' 'value=3' 'support:' \
  'p=1 sets=[[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4]]' \
  | diff - "$tmp/online-543-det.txt"
python scripts/two_pool_tightness.py --max-pool 7 > "$tmp/two-pool-sweep.csv"
test "$(sha256 "$tmp/two-pool-sweep.csv")" = 1007e9840b7eaade57f17af118886ff81e827fe9ba6f358228957f8b46b595c9
python -m faultsched two-pool --N1 8 --N2 0 --n 4 --g1 1 --g2 0 \
  --brute > "$tmp/two-pool.txt"
printf 'bound=6\nsplit=4,0\nbrute_T_opt=6\n' | diff - "$tmp/two-pool.txt"
python -m faultsched verify-theorem --max-N 10 > "$tmp/theorem.csv"
test "$(grep -c ',true' "$tmp/theorem.csv")" -eq 165
# The optimal schedule at N=3200 survives h = 800 steps; one
# killability scan finds t* = 801 in well under a second, and
# the kills read off its matching replay to exactly 800.
python -m faultsched gen-trivial --N 3200 --n 40 --f 10 --out "$tmp/s.json"
# The same schedule from the batch formula in trivial_schedule's
# docstring, built without library code, must match byte for byte.
# So must N=3210, n=40, f=35: 80 full batches of 35 rows, then 5 rows
# of the partial batch (the first 30 ids of batch 80 and the 10
# leftover ids) and 405 padding rows, all repeats of shared rows.
python -m faultsched gen-trivial --N 3210 --n 40 --f 35 --out "$tmp/s-tail.json"
for shape in "3200 40 10 s" "3210 40 35 s-tail"; do
  set -- $shape
  python - "$1" "$2" "$3" "$tmp/batch-$4.json" <<'EOF'
import json, sys
N, n, f = map(int, sys.argv[1:4])
q, p = divmod(N, n)
sets = [list(range(i * n + 1, (i + 1) * n + 1)) for i in range(q) for _ in range(f)]
last = (q - 1) * n + 1
sets += [list(range(last, last + n - p)) + list(range(N - p + 1, N + 1))] * max(f + p - n, 0)
sets += [sets[-1]] * (N - len(sets))
with open(sys.argv[4], "w") as fh:
    fh.write(json.dumps({"N": N, "n": n, "f": f, "sets": sets}) + "\n")
EOF
  diff -q "$tmp/batch-$4.json" "$tmp/$4.json"
done
python -m faultsched solve-adversary --schedule "$tmp/s.json" \
  --out "$tmp/adv.json" > "$tmp/solve.txt"
printf 'T=800\nt*=801\n' | diff - "$tmp/solve.txt"
python -m faultsched eval --schedule "$tmp/s.json" \
  --adversary "$tmp/adv.json" > "$tmp/eval.txt"
echo 800 | diff - "$tmp/eval.txt"
# Without --out the kills go to stdout as the same bytes, by the
# one encoder.
python -m faultsched solve-adversary --schedule "$tmp/s.json" \
  > "$tmp/solve-stdout.txt"
tail -n 1 "$tmp/solve-stdout.txt" | cmp "$tmp/adv.json" -
test "$(sha256 "$tmp/adv.json")" = f655787798c499f8adf767bbb4b0c10d20e695d844d7e329f6c6d763756505f8
# 320 seeded member swaps break the shared histories of the batch
# rows, so the scan also counts unequal histories at scale; the
# written adversary must replay to the printed T (eval runs the
# game itself, not the scan).
python - "$tmp/s.json" "$tmp/swap.json" <<'EOF'
import json, random, sys
with open(sys.argv[1]) as fh:
    d = json.load(fh)
rng = random.Random(3200)
for _ in range(d["N"] // 10):
    row = d["sets"][rng.randrange(len(d["sets"]))]
    row[rng.randrange(len(row))] = rng.choice([p for p in range(1, d["N"] + 1) if p not in row])
    row.sort()
with open(sys.argv[2], "w") as fh:
    fh.write(json.dumps(d) + "\n")
EOF
python -m faultsched solve-adversary --schedule "$tmp/swap.json" \
  --out "$tmp/swap-adv.json" > "$tmp/swap.txt"
T=$(sed -n 's/^T=//p' "$tmp/swap.txt")
test "$T" -le 800
python -m faultsched eval --schedule "$tmp/swap.json" \
  --adversary "$tmp/swap-adv.json" > "$tmp/swap-eval.txt"
echo "$T" | diff - "$tmp/swap-eval.txt"
test "$(sha256 "$tmp/swap-adv.json")" = e0c19e48cc55de14edf69feb0346b0bb71db82eeaa9f246a1e6dc7fb446cd5c7
# A seeded uniform-random N=800 schedule, built without library
# code: its members' histories differ, so which maximum matching
# the scan finds, and with it the kills, depends on the order of
# its search (on seed 802 a search from the earlier steps and one
# from the members give different kills); the written adversary
# must replay to the printed T, and the surviving prefix must pass
# check-p, reduce, and pass check-p again.
python - "$tmp/rand.json" <<'EOF'
import json, random, sys
N, n, f = 800, 40, 10
rng = random.Random(802)
sets = [sorted(rng.sample(range(1, N + 1), n)) for _ in range(N)]
with open(sys.argv[1], "w") as fh:
    fh.write(json.dumps({"N": N, "n": n, "f": f, "sets": sets}) + "\n")
EOF
python -m faultsched solve-adversary --schedule "$tmp/rand.json" \
  --out "$tmp/rand-adv.json" > "$tmp/rand.txt"
RT=$(sed -n 's/^T=//p' "$tmp/rand.txt")
python -m faultsched eval --schedule "$tmp/rand.json" \
  --adversary "$tmp/rand-adv.json" > "$tmp/rand-eval.txt"
echo "$RT" | diff - "$tmp/rand-eval.txt"
test "$(sha256 "$tmp/rand-adv.json")" = a47f64cd20e723f02c3537cd37040ffb5a83f9e09bc28701fe677bdf0670f533
python -c 'import json, sys; d = json.load(open(sys.argv[1])); json.dump({"n": d["n"], "f": d["f"], "right_ids": list(range(1, d["N"] + 1)), "rows": d["sets"][:int(sys.argv[2])]}, open(sys.argv[3], "w"))' \
  "$tmp/rand.json" "$RT" "$tmp/rand-p.json"
python -m faultsched check-p --instance "$tmp/rand-p.json" > "$tmp/rand-p.txt"
echo member | diff - "$tmp/rand-p.txt"
python -m faultsched reduce --instance "$tmp/rand-p.json" \
  --out "$tmp/rand-r.json" > "$tmp/rand-reduce.txt"
test "$(head -n 1 "$tmp/rand-reduce.txt")" = "L=$RT R=800"
python -m faultsched check-p --instance "$tmp/rand-r.json" > "$tmp/rand-r.txt"
echo member | diff - "$tmp/rand-r.txt"
# The reduced instance itself, byte for byte: a change to the Ore
# witness that keeps the counts but moves the rows or ids it drops
# fails here.
test "$(sha256 "$tmp/rand-r.json")" = 163cdea057ad23098d8061ce8ac9116a446a6f99dfb9ef49185911241dec98b5
# A repeated id in the last row, long after t* = 801, must still be
# caught: the whole schedule is validated before the scan.
python -c 'import json, sys; d = json.load(open(sys.argv[1])); d["sets"][-1][-1] = d["sets"][-1][0]; json.dump(d, open(sys.argv[2], "w"))' \
  "$tmp/s.json" "$tmp/dup.json"
code=0
python -m faultsched solve-adversary --schedule "$tmp/dup.json" \
  > "$tmp/dup.out" 2> "$tmp/dup.err" || code=$?
test "$code" -eq 1
test ! -s "$tmp/dup.out"
test "$(tail -n 1 "$tmp/dup.err")" = "error: invalid schedule: duplicate id at t=3200"
# Its first 800 sets, the surviving prefix, as an instance file.
python -c 'import json, sys; d = json.load(open(sys.argv[1])); json.dump({"n": d["n"], "f": d["f"], "right_ids": list(range(1, d["N"] + 1)), "rows": d["sets"][:800]}, open(sys.argv[2], "w"))' \
  "$tmp/s.json" "$tmp/p.json"
python -m faultsched check-p --instance "$tmp/p.json" > "$tmp/p.txt"
echo member | diff - "$tmp/p.txt"
python -m faultsched reduce --instance "$tmp/p.json" \
  --out "$tmp/r.json" > "$tmp/reduce.txt"
printf "L=800 R=3200\nL'=790 R'=3160\n" | diff - "$tmp/reduce.txt"
python -m faultsched check-p --instance "$tmp/r.json" > "$tmp/r.txt"
echo member | diff - "$tmp/r.txt"
python -m faultsched reduce --instance "$tmp/p.json" > "$tmp/r-stdout.json"
cmp "$tmp/r.json" "$tmp/r-stdout.json"
# The reduction drops the last batch, its 10 rows and its 40 ids: the
# first 790 rows of the batch formula over ids 1..3160, built without
# library code, must match the written file byte for byte.
python - "$tmp/r-batch.json" <<'EOF'
import json, sys
n, f, q = 40, 10, 79
rows = [list(range(i * n + 1, (i + 1) * n + 1)) for i in range(q) for _ in range(f)]
with open(sys.argv[1], "w") as fh:
    fh.write(json.dumps({"n": n, "f": f, "right_ids": list(range(1, q * n + 1)), "rows": rows}) + "\n")
EOF
cmp "$tmp/r-batch.json" "$tmp/r.json"
# The swapped schedule's first T sets, its surviving prefix.
python -c 'import json, sys; d = json.load(open(sys.argv[1])); json.dump({"n": d["n"], "f": d["f"], "right_ids": list(range(1, d["N"] + 1)), "rows": d["sets"][:int(sys.argv[2])]}, open(sys.argv[3], "w"))' \
  "$tmp/swap.json" "$T" "$tmp/swap-p.json"
python -m faultsched check-p --instance "$tmp/swap-p.json" > "$tmp/swap-p.txt"
echo member | diff - "$tmp/swap-p.txt"
python -m faultsched reduce --instance "$tmp/swap-p.json" \
  --out "$tmp/swap-r.json" > "$tmp/swap-reduce.txt"
test "$(head -n 1 "$tmp/swap-reduce.txt")" = "L=$T R=3200"
python -m faultsched check-p --instance "$tmp/swap-r.json" > "$tmp/swap-r.txt"
echo member | diff - "$tmp/swap-r.txt"
test "$(sha256 "$tmp/swap-r.json")" = 07bfd53ff25c05533d5bdbd4e4be05ae00ff7e5d9a3034746e30111023471619
