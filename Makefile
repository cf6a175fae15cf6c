# Convenience entry points; the source of truth is dune.

# `make verify RTCAD_JOBS=2` runs the whole gate with the worker pool
# enabled; every kernel is deterministic in the job count, so the
# results must be identical to the RTCAD_JOBS=1 run.
ifdef RTCAD_JOBS
export RTCAD_JOBS
endif

.PHONY: all build test fuzz fuzz-edits bench bench-check bench-clean verify golden golden-update smoke-symbolic smoke-symbolic-synth smoke-incremental smoke-serve smoke-serve-concurrent smoke-rappid test-serve clean

all: build

build:
	dune build

test:
	dune runtest

fuzz:
	dune exec bin/rtsyn.exe -- fuzz --cases 200 --seed 1 --quiet

# Incremental edit-replay battery: random base specs, short random edit
# scripts, every step synthesized three ways (delta-seeded, warm-cache,
# from scratch) and required to agree verdict for verdict.  Heavier per
# case than `fuzz` — each case is several full synthesis runs — so the
# CI leg keeps the count modest; `make fuzz-edits CASES=200` is the
# full battery.
CASES ?= 25
fuzz-edits:
	dune exec bin/rtsyn.exe -- fuzz --edits 3 --cases $(CASES) --seed 1 --quiet

bench:
	dune exec bench/main.exe -- perf

# The end-to-end benchmark's own checks: the harness selftest, then a
# recomputation of every committed expected value under
# perfbench/expected plus its independent oracles (a few minutes).
# Nothing else builds perfbench/, so this is where a library change
# that breaks the benchmark or moves one of its outputs shows up.
bench-check:
	dune exec perfbench/main.exe -- selftest
	dune exec perfbench/main.exe -- validate

# Symbolic-engine smoke: ring-14 (~3.1e7 states) is far past the
# explicit 200 000-state bound, so this exercises the clustered BDD
# fixpoint, the CSC check and the engine selection end to end in a few
# hundred ms.
smoke-symbolic:
	dune exec bin/rtsyn.exe -- check ring14 --engine symbolic

# End-to-end symbolic synthesis: ring-10 (393 660 states, never
# materialized) through state encoding, RT pruning, cover extraction and
# the conformance self-check, all on the reachable BDD.
smoke-symbolic-synth:
	dune exec bin/rtsyn.exe -- synth ring10 --engine symbolic

# Incremental-synthesis smoke: cold synthesis of ring-12 populates an
# artifact store, a second run replays it (byte-identical report, warm
# stages), and `rtsyn cache stats` shows the stage inventory.  The
# temp store lives under _build so `dune clean` sweeps it.  The final
# leg runs the edit-then-resynthesize kernel once: cold synthesis, one
# duplicated transition, warm delta-seeded re-synthesis (the in-process
# path the analysis-pool seeding serves).
smoke-incremental:
	rm -rf _build/smoke-flow-cache
	dune exec bin/rtsyn.exe -- synth ring12 --engine symbolic --cache _build/smoke-flow-cache > _build/smoke-cold.out
	dune exec bin/rtsyn.exe -- synth ring12 --engine symbolic --cache _build/smoke-flow-cache > _build/smoke-warm.out
	cmp _build/smoke-cold.out _build/smoke-warm.out
	dune exec bin/rtsyn.exe -- cache stats _build/smoke-flow-cache
	dune exec bench/main.exe -- perf --reps 1 --only flow_incremental

# Golden-trace regression corpus (test/golden): compare fresh VCD and
# metric-summary output against the committed snapshots...
golden:
	dune exec test/test_rtcad.exe -- test golden

# ...or re-bless the snapshots after an intentional behaviour change.
# Writes into the source tree (not the dune sandbox); review the diff
# like any other code change.
golden-update:
	RTCAD_UPDATE_GOLDEN=1 RTCAD_GOLDEN_DIR=$(CURDIR)/test/golden \
	  dune exec test/test_rtcad.exe -- test golden

# The full gate a change must pass: build, unit+cram tests, a 200-case
# differential fuzzing campaign, and the kernel wall-time regression
# check against bench/baseline.json.
verify: build test fuzz
	RTCAD_BENCH_REPS=3 dune exec bench/main.exe -- perf
	dune exec bench/main.exe -- compare --strict

# The perf history stamps a new bench/results/<timestamp>.json on every
# run; only latest.json (and the blessed baseline.json) are tracked.
# This drops the accumulated timestamped files.
bench-clean:
	rm -f bench/results/[0-9]*.json BENCH_perf.json

# Serving-layer test battery only: the protocol/cache/determinism unit
# suite plus the golden corpus replayed through the server.
test-serve:
	dune exec test/test_rtcad.exe -- test serve
	dune exec test/test_rtcad.exe -- test golden

# Daemon smoke: a scripted NDJSON session over stdio must answer every
# line, survive garbage, and serve the repeated request from the cache.
smoke-serve:
	printf '%s\n' \
	  '{"op":"check","spec":"fifo"}' \
	  '{"op":"synth","spec":"fifo","mode":"si"}' \
	  'garbage' \
	  '{"op":"check","spec":"fifo"}' \
	  '{"op":"stats"}' \
	  '{"op":"shutdown"}' \
	  | dune exec bin/rtsyn.exe -- serve | grep -c '"cached":true'

# Streaming-RAPPID smoke: a 1M-instruction virtual stream through the
# 4-shard decoder farm.  The heap budget is the point — a 1M-instruction
# run peaks near 300k words, while materializing the stream would blow
# past 1.3M, so the guard fails the build if anyone reintroduces a
# length-proportional allocation.  Deterministic in the job count.
smoke-rappid:
	dune exec bin/rtsyn.exe -- rappid --instrs 1000000 --shards 4 --seed 7 \
	  --heap-budget-words 1000000

# Concurrent-daemon smoke: 4 socket clients against one mux daemon plus
# the 4-sessions-back-to-back baseline, one rep each.  The concurrent
# leg must beat the sequential one handily (shared cache + wave
# coalescing); `bench compare` enforces the recorded floor.
smoke-serve-concurrent:
	dune exec bench/main.exe -- perf --reps 1 --only serve_daemon --only serve_sequential

clean:
	dune clean
