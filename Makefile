# Development entry points. `make check` is the tier-1 verification the
# roadmap requires; `make resilience` runs the fault-injection and
# crash-recovery suites; `make fuzz` sweeps the benchmarks through the
# differential resilience harnesses (serial oracle vs. seeded fault
# schedules, plus crash schedules with checkpoint/restart recovery).

DUNE ?= dune
DHPFC = $(DUNE) exec bin/dhpfc.exe --

.PHONY: all check test loc resilience fuzz bench bench-smoke bench-run bench-run-smoke bench-par-smoke bench-native-smoke bench-native bench-serve bench-serve-smoke serve-obs-smoke metrics-smoke fmt fmt-check clean

all:
	$(DUNE) build

check:
	$(DUNE) build && $(DUNE) runtest && $(MAKE) bench-smoke && $(MAKE) bench-run-smoke && $(MAKE) bench-par-smoke && $(MAKE) bench-native-smoke && $(MAKE) bench-serve-smoke && $(MAKE) serve-obs-smoke && $(MAKE) metrics-smoke

# Fast Table-1 subset with the bench's JSON emitter; fails if the
# integer-set caches record zero hits (i.e. the memoization layer is
# accidentally disabled or dead).
bench-smoke:
	$(DUNE) exec bench/main.exe -- smoke

# `bench` regenerates BENCH_compile.json (full Table 1, a few minutes).
bench:
	$(DUNE) exec bench/main.exe -- json > BENCH_compile.json

# Fast Figure-7 runtime subset: runs each workload under both execution
# engines, fails if their counters disagree or if the closure engine is
# not faster than the interpreter.
bench-run-smoke:
	$(DUNE) exec bench/main.exe -- run-smoke

# `bench-run` regenerates BENCH_run.json.
bench-run:
	$(DUNE) exec bench/main.exe -- run-json > BENCH_run.json

# Domain-parallel smoke: the sharded-lane scheduler must stay bit-identical
# to the sequential one (always checked), and on hosts with >= 2 cores the
# parallel compile and simulation must beat 1 domain by
# DHPF_PAR_SMOKE_MIN_SPEEDUP (default 1.5x); single-core hosts skip the
# speedup half with a message.
bench-par-smoke:
	$(DUNE) exec bench/main.exe -- par-smoke

# Native-engine smoke: the generated-OCaml kernel must stay bit-identical
# to the closure engine and the interpreter (three-way differential, fault
# schedules included), and its warm-cache run phase must beat the closure
# engine by DHPF_NATIVE_SMOKE_MIN_SPEEDUP (default 3x) on JACOBI-384.
# `bench-native` regenerates BENCH_native.json.
bench-native-smoke:
	$(DUNE) exec bench/main.exe -- native-smoke

bench-native:
	$(DUNE) exec bench/main.exe -- native-json > BENCH_native.json

# Compilation-service smoke: fork a cold and a warm daemon over one
# shared disk cache, drive both with concurrent mixed compile/run
# clients, and fail unless every request succeeds, the warm daemon
# serves nonzero disk-cache hits, and both daemons shut down cleanly on
# SIGTERM. `bench-serve` regenerates BENCH_serve.json.
bench-serve-smoke:
	$(DHPFC) bench-serve --clients 8 --requests 3 --smoke

bench-serve:
	$(DHPFC) bench-serve --clients 8 --requests 4 --json BENCH_serve.json --smoke

# Observability smoke: the same three daemons (cold, warm, eviction
# pressure) with every telemetry sink routed to OBS_DIR — structured
# JSONL logs, Prometheus files, flight-recorder dumps — and the smoke
# checks extended to parse and validate each artifact, assert that
# telemetry threads through every response, and that the squeezed
# daemon records evictions and a degraded hit ratio.
OBS_DIR ?= artifacts/obs
serve-obs-smoke:
	mkdir -p $(OBS_DIR)
	$(DHPFC) bench-serve --clients 4 --requests 3 --obs $(OBS_DIR) --json $(OBS_DIR)/BENCH_serve.json --smoke

# Predicted-vs-measured communication: the bench's symmetric-stencil
# matrix assertions, then --check-comm (static integer-set prediction
# joined against the simulated matrix, exact match required) on the
# Figure-7 applications under both a fault-free and a faulty schedule.
metrics-smoke:
	$(DUNE) exec bench/main.exe -- metrics-smoke
	$(DHPFC) run jacobi -p 4 --check-comm > /dev/null
	$(DHPFC) run tomcatv -p 4 --check-comm > /dev/null
	$(DHPFC) run erlebacher -p 4 --check-comm > /dev/null
	$(DHPFC) run jacobi -p 4 --check-comm --faults 1 > /dev/null

test: check

# Size report: line counts of the tracked .ml/.mli/.mll files under each
# library, executable and test directory (subdirectories included), plus
# the total. Run it on two commits to get a change's net lines per library.
LOC_DIRS = $(sort $(wildcard lib/*)) bin bench perfbench test
loc:
	@for d in $(LOC_DIRS); do \
	  n=$$(git ls-files -- "$$d/*.ml" "$$d/*.mli" "$$d/*.mll" | xargs -r cat | wc -l); \
	  printf '%-14s %7d\n' "$$d" "$$n"; \
	done
	@printf '%-14s %7d\n' total \
	  "$$(git ls-files -- $(foreach d,$(LOC_DIRS),'$(d)/*.ml' '$(d)/*.mli' '$(d)/*.mll') | xargs -r cat | wc -l)"

# Formatting is pinned by .ocamlformat and enforced in CI; both targets
# degrade to a no-op warning when ocamlformat is not installed locally.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) fmt; \
	else \
	  echo "ocamlformat not installed; skipping fmt"; \
	fi

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping fmt-check"; \
	fi

resilience:
	$(DUNE) build @resilience
	$(DHPFC) run jacobi --diff-crashes 3
	$(DHPFC) run gauss --diff-crashes 3

fuzz:
	$(DHPFC) run jacobi --diff 5
	$(DHPFC) run tomcatv --diff 5
	$(DHPFC) run erlebacher --diff 5
	$(DHPFC) run figure2 --diff 5
	$(DHPFC) run sp_like --diff 5
	$(DHPFC) run jacobi --diff-crashes 5
	$(DHPFC) run tomcatv --diff-crashes 3
	$(DHPFC) run sp_like --diff-crashes 3

clean:
	$(DUNE) clean
