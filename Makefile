# Convenience entry points; the source of truth is dune.

# `make verify RTCAD_JOBS=2` runs the whole gate with the worker pool
# enabled; every kernel is deterministic in the job count, so the
# results must be identical to the RTCAD_JOBS=1 run.
ifdef RTCAD_JOBS
export RTCAD_JOBS
endif

.PHONY: all build test fuzz fuzz-edits bench-check verify golden golden-update smoke-symbolic smoke-symbolic-synth smoke-incremental smoke-serve smoke-serve-concurrent smoke-rappid test-serve clean

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

# The end-to-end benchmark's own checks: the harness selftest, then a
# recomputation of every committed expected value under
# perfbench/expected plus its independent oracles (a few minutes).
# A library change that breaks the benchmark or moves one of its
# outputs shows up here.
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

# One 1-s pass of a perfbench workload, every output checked against
# its committed expected value.  `run` exits 0 even when an output is
# wrong, so the result object on its last line must say so.
perfbench_smoke = dune exec perfbench/main.exe -- run --workload $(1) \
	  --seed 1 --seconds 1 --trace 0 | tail -n 1 | grep '"correct":true'

# Incremental-synthesis smoke: cold synthesis of ring-12 populates an
# artifact store, a second run replays it (byte-identical report, warm
# stages), and `rtsyn cache stats` shows the stage inventory.  The
# temp store lives under _build so `dune clean` sweeps it.  The final
# leg is one edit_loop pass: cold base syntheses of rings 10-12 into
# one store, then edited specs re-synthesized delta-seeded and through
# covers-stage replay.
smoke-incremental:
	rm -rf _build/smoke-flow-cache
	dune exec bin/rtsyn.exe -- synth ring12 --engine symbolic --cache _build/smoke-flow-cache > _build/smoke-cold.out
	dune exec bin/rtsyn.exe -- synth ring12 --engine symbolic --cache _build/smoke-flow-cache > _build/smoke-warm.out
	cmp _build/smoke-cold.out _build/smoke-warm.out
	dune exec bin/rtsyn.exe -- cache stats _build/smoke-flow-cache
	$(call perfbench_smoke,edit_loop)

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
# differential fuzzing campaign, and the selftest of the paired
# benchmark gate.  The gate itself needs a base commit to pair against:
# `python3 bench/ab.py BASE` (CI runs it against the pull request's base).
verify: build test fuzz
	python3 bench/ab.py --selftest

# Serving-layer test battery only: the protocol/cache/determinism unit
# suite plus the golden corpus replayed through the server.
test-serve:
	dune exec test/test_rtcad.exe -- test serve
	dune exec test/test_rtcad.exe -- test golden

# Daemon smoke: a scripted NDJSON session over stdio must answer every
# line, survive garbage, and serve the repeated request from the cache.
# Then the same session twice against an on-disk store: the second,
# fresh process must answer all three work requests from disk, and
# `rtsyn cache stats` lists the responses beside the synthesis stages.
# The store lives under _build so `dune clean` sweeps it.
SMOKE_SERVE_SESSION = printf '%s\n' \
	  '{"op":"check","spec":"fifo"}' \
	  '{"op":"synth","spec":"fifo","mode":"si"}' \
	  'garbage' \
	  '{"op":"check","spec":"fifo"}' \
	  '{"op":"stats"}' \
	  '{"op":"shutdown"}'
smoke-serve:
	$(SMOKE_SERVE_SESSION) | dune exec bin/rtsyn.exe -- serve | grep -c '"cached":true'
	rm -rf _build/smoke-serve-cache
	$(SMOKE_SERVE_SESSION) | dune exec bin/rtsyn.exe -- serve --cache-dir _build/smoke-serve-cache | grep -c '"cached":true'
	test "$$($(SMOKE_SERVE_SESSION) | dune exec bin/rtsyn.exe -- serve --cache-dir _build/smoke-serve-cache | grep -c '"cached":true')" = 3
	dune exec bin/rtsyn.exe -- cache stats _build/smoke-serve-cache

# Streaming-RAPPID smoke: a 1M-instruction virtual stream through the
# 4-shard decoder farm.  The heap budget is the point — a 1M-instruction
# run peaks near 300k words, while materializing the stream would blow
# past 1.3M, so the guard fails the build if anyone reintroduces a
# length-proportional allocation.  Deterministic in the job count.
smoke-rappid:
	dune exec bin/rtsyn.exe -- rappid --instrs 1000000 --shards 4 --seed 7 \
	  --heap-budget-words 1000000

# Concurrent-daemon smoke: one serve_mix pass, two closed-loop socket
# clients on one in-process mux daemon with both disk tiers (response
# cache and flow store), every response checked.  Wave fan-outs go
# through the worker pool, so the responses must be the same at every
# job count.
smoke-serve-concurrent:
	$(call perfbench_smoke,serve_mix)

clean:
	dune clean
