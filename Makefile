# Convenience wrappers around dune; see README.md.

.PHONY: all verify test report-schema soak-smoke serve-smoke stab-smoke m5-smoke attack-jobs e2e-smoke bench bench-smoke bench-artifact perf-gate clean

all:
	dune build

# The tier-1 gate: full build, the whole test battery (which includes
# the report_schema.t cram test), an explicit artifact check, and the
# enforcing perf gate (export STP_PERF_GATE=warn to demote the gate to
# report-only on hosts whose micro timings can't be trusted).
verify:
	dune build
	dune runtest
	$(MAKE) report-schema
	$(MAKE) soak-smoke
	$(MAKE) serve-smoke
	$(MAKE) stab-smoke
	$(MAKE) m5-smoke
	$(MAKE) attack-jobs
	$(MAKE) e2e-smoke
	$(MAKE) perf-gate

# The report-schema gate, standalone: produce --json artifacts from
# the CLI and validate them against the versioned report schema.
report-schema:
	dune build bin/stp_cli.exe
	_build/default/bin/stp_cli.exe experiments --quick --only E1 --json _build/stp_exp.json > /dev/null
	_build/default/bin/stp_cli.exe attack -p norep -d 2 --json _build/stp_attack.json > /dev/null
	_build/default/bin/stp_cli.exe soak --seed 5 --random-plans 1 --json _build/stp_soak.json > /dev/null
	_build/default/bin/stp_cli.exe serve --once examples/serve_jobs.json --json _build/stp_serve.json > /dev/null
	_build/default/bin/stp_cli.exe validate _build/stp_exp.json
	_build/default/bin/stp_cli.exe validate _build/stp_attack.json
	_build/default/bin/stp_cli.exe validate _build/stp_soak.json
	_build/default/bin/stp_cli.exe validate _build/stp_serve.json

# A tiny fault-injection battery: run it, validate its artifact, and
# require the scripted scenarios to have produced recovery verdicts.
soak-smoke:
	dune build bin/stp_cli.exe
	_build/default/bin/stp_cli.exe soak --seed 5 --random-plans 1 --json _build/stp_soak_smoke.json
	_build/default/bin/stp_cli.exe validate _build/stp_soak_smoke.json

# The serve daemon end to end: execute the committed example batch
# (three clean jobs plus a fault-plan job), validate its artifact, and
# pin the determinism contract — per-job results bit-identical across
# job counts.
serve-smoke:
	dune build bin/stp_cli.exe
	_build/default/bin/stp_cli.exe serve --once examples/serve_jobs.json --json _build/stp_serve_smoke.json > /dev/null
	_build/default/bin/stp_cli.exe validate _build/stp_serve_smoke.json
	_build/default/bin/stp_cli.exe serve --once examples/serve_jobs.json --results-only --jobs 1 --json _build/stp_serve_j1.json > /dev/null
	_build/default/bin/stp_cli.exe serve --once examples/serve_jobs.json --results-only --jobs 4 --json _build/stp_serve_j4.json > /dev/null
	cmp _build/stp_serve_j1.json _build/stp_serve_j4.json

# The self-stabilisation gate: sweep every corrupted start of each
# stabilising family (artifact ok is load-bearing — any non-converging
# point fails it), run the multi-family corrupted-start soak battery
# (composed mid-run faults included), and validate every artifact
# against the report schema.
stab-smoke:
	dune build bin/stp_cli.exe
	_build/default/bin/stp_cli.exe stab --json _build/stp_stab_smoke.json
	_build/default/bin/stp_cli.exe validate _build/stp_stab_smoke.json
	_build/default/bin/stp_cli.exe stab -p stenning-stab --json _build/stp_stab_stn.json > /dev/null
	_build/default/bin/stp_cli.exe validate _build/stp_stab_stn.json
	_build/default/bin/stp_cli.exe stab -p gbn-stab --search --json _build/stp_stab_gbn.json > /dev/null
	_build/default/bin/stp_cli.exe validate _build/stp_stab_gbn.json
	_build/default/bin/stp_cli.exe soak --stab --seed 5 --random-plans 1 --json _build/stp_stab_soak.json
	_build/default/bin/stp_cli.exe validate _build/stp_stab_soak.json

# The attack sweeps' determinism contract across job counts.  Each
# domain reuses its own joint-search tables, so at --jobs 2 the
# searches land on other tables, after other searches, than at --jobs 1;
# the artifacts must still match byte for byte.  The sweeps end in every
# way a search can: three safety witnesses that stop their searches
# early, two starvation witnesses, and clean closes.  The third sweep
# runs with and without --symm: the quotient and the plain sweep are
# one path, and must write the same artifact at either job count.
attack-jobs:
	dune build bin/stp_cli.exe
	for j in 1 2; do \
	  _build/default/bin/stp_cli.exe attack -p counting -c dup -d 2 -x 0,1 -x 1,0 -x 1 -x 0 --jobs $$j --json _build/stp_attack_safety_j$$j.json > /dev/null || exit 1; \
	  _build/default/bin/stp_cli.exe attack -p norep -c dup -d 2 -x 0,0 -x 0,1 -x 1,0 -x 1,1 --depth 200 --jobs $$j --json _build/stp_attack_starve_j$$j.json > /dev/null || exit 1; \
	  _build/default/bin/stp_cli.exe attack -p norep -c del -d 2 --symm -x 0,1 -x 1,0 -x 0 -x 1 --jobs $$j --json _build/stp_attack_m5_j$$j.json > /dev/null || exit 1; \
	  _build/default/bin/stp_cli.exe attack -p norep -c del -d 2 -x 0,1 -x 1,0 -x 0 -x 1 --jobs $$j --json _build/stp_attack_m5_plain_j$$j.json > /dev/null || exit 1; \
	done
	cmp _build/stp_attack_safety_j1.json _build/stp_attack_safety_j2.json
	cmp _build/stp_attack_starve_j1.json _build/stp_attack_starve_j2.json
	cmp _build/stp_attack_m5_j1.json _build/stp_attack_m5_j2.json
	cmp _build/stp_attack_m5_j1.json _build/stp_attack_m5_plain_j1.json
	cmp _build/stp_attack_m5_j2.json _build/stp_attack_m5_plain_j2.json

# The end-to-end benchmark's three workloads, briefly and traced (about
# 13 s in all): each run's last line must read correct with no failed
# op.  The traced run adds the benchmark's differential checks, so this
# pins the workloads' state counts, the 91 sweep representatives and
# the serve artifact digests.
e2e-smoke:
	dune build ./e2ebench/main.exe
	for w in pair-sweep single-bfs serve-loop; do \
	  bash e2ebench/run.sh --workload $$w --seed 1 --seconds 3 --trace 1 > _build/stp_e2e_$$w.txt || exit 1; \
	  tail -n 1 _build/stp_e2e_$$w.txt | grep -q '"correct": true,' || { echo "e2e-smoke: $$w is not correct" >&2; exit 1; }; \
	  tail -n 1 _build/stp_e2e_$$w.txt | grep -q '"failed": 0,' || { echo "e2e-smoke: $$w failed ops" >&2; exit 1; }; \
	done

test: verify

# Full benchmark run: reproduction tables + Bechamel timings.
bench:
	dune exec bench/main.exe

# Quick timing pass with a machine-readable artifact; ~a second per
# benchmark is replaced by a 50ms quota, so the numbers are rough but
# the plumbing (and the JSON schema) is exercised end to end.
bench-smoke:
	dune exec bench/main.exe -- --micro --quota 0.05 --json BENCH_smoke.json

# The out-of-core gate: the E16 m=5 slice (spilled vs resident sweeps
# must agree byte for byte, with the spilled run's frontier pinned to
# its budget — ok is load-bearing), then the same exactness contract
# through the CLI: two sweeps at wildly different --mem-budget values
# write byte-identical artifacts, and so do two single-run searches
# (the first must really have spilled frontier chunks to disk).
m5-smoke:
	dune build bin/stp_cli.exe
	_build/default/bin/stp_cli.exe experiments --quick --only E16 --json _build/stp_e16.json > /dev/null
	_build/default/bin/stp_cli.exe validate _build/stp_e16.json
	_build/default/bin/stp_cli.exe attack -p norep -c del -d 2 --symm -x 0,1 -x 1,0 -x 0 -x 1 --mem-budget 1 --json _build/stp_m5_spill.json > /dev/null
	_build/default/bin/stp_cli.exe attack -p norep -c del -d 2 --symm -x 0,1 -x 1,0 -x 0 -x 1 --mem-budget 999999999 --json _build/stp_m5_mem.json > /dev/null
	cmp _build/stp_m5_spill.json _build/stp_m5_mem.json
	_build/default/bin/stp_cli.exe validate _build/stp_m5_spill.json
	_build/default/bin/stp_cli.exe attack -p norep -c del -d 3 --x1 0,1,2 --depth 20 --single --mem-budget 1 --json _build/stp_single_spill.json > _build/stp_single_spill.txt
	grep -q 'spilled [1-9]' _build/stp_single_spill.txt
	_build/default/bin/stp_cli.exe attack -p norep -c del -d 3 --x1 0,1,2 --depth 20 --single --mem-budget 999999999 --json _build/stp_single_mem.json > /dev/null
	cmp _build/stp_single_spill.json _build/stp_single_mem.json
	_build/default/bin/stp_cli.exe validate _build/stp_single_spill.json

# The committed perf baseline (BENCH_PR10.json): a real-quota timing
# artifact checked into the repo so future changes can be compared
# against it with `make perf-gate`.
bench-artifact:
	dune exec bench/main.exe -- --micro --quota 1.0 --json BENCH_PR10.json

# Enforcing perf gate: run three independent timing passes and diff
# the per-benchmark minimum against the committed baseline with a
# tolerance band (transient load only ever inflates a timing, so the
# fastest pass is the honest one).  Regressions beyond the tolerance —
# and baseline benchmarks missing from the fresh runs — fail the
# build; STP_PERF_GATE=warn restores the old report-only behaviour
# for hosts with untrustworthy micro timings.
perf-gate:
	dune build bench/main.exe bench/perf_gate.exe
	_build/default/bench/main.exe --micro --quota 0.5 --json _build/BENCH_latest1.json
	_build/default/bench/main.exe --micro --quota 0.5 --json _build/BENCH_latest2.json
	_build/default/bench/main.exe --micro --quota 0.5 --json _build/BENCH_latest3.json
	_build/default/bench/perf_gate.exe BENCH_PR10.json _build/BENCH_latest1.json _build/BENCH_latest2.json _build/BENCH_latest3.json

clean:
	dune clean
	rm -f BENCH_smoke.json
