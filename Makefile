# Development entry points. `make check` is the tier-1 verification the
# roadmap requires; `make resilience` runs the fault-injection and
# crash-recovery suites; `make fuzz` sweeps the benchmarks through the
# differential resilience harnesses (serial oracle vs. seeded fault
# schedules, plus crash schedules with checkpoint/restart recovery).

DUNE ?= dune
DHPFC = $(DUNE) exec bin/dhpfc.exe --

.PHONY: all check test loc resilience fuzz bench-smoke bench-run-smoke bench-par-smoke bench-native-smoke metrics-smoke fmt fmt-check clean

all:
	$(DUNE) build

check:
	$(DUNE) build && $(DUNE) runtest && $(MAKE) bench-smoke && $(MAKE) bench-run-smoke && $(MAKE) bench-par-smoke && $(MAKE) bench-native-smoke && $(MAKE) metrics-smoke

# Fast Table-1 subset; fails if the integer-set caches record zero hits
# (i.e. the memoization layer is accidentally disabled or dead) or a warm
# repeat compile allocates more than half the minor words of a cold one.
bench-smoke:
	$(DUNE) exec bench/main.exe -- smoke

# Fast Figure-7 runtime subset: runs each workload under both execution
# engines, fails if their counters disagree or if the closure engine is
# not faster than the interpreter.
bench-run-smoke:
	$(DUNE) exec bench/main.exe -- run-smoke

# Domain-parallel smoke: a sharded simulation must stay bit-identical to
# its 1-domain run (always checked), and on hosts with >= 2 cores the
# parallel compile and simulation must beat 1 domain by 1.5x; single-core
# hosts skip the speedup half with a message.
bench-par-smoke:
	$(DUNE) exec bench/main.exe -- par-smoke

# Native-engine smoke: the generated-OCaml kernel must stay bit-identical
# to the closure engine and the interpreter (three-way differential, fault
# schedules included), and its warm-cache run phase must beat the closure
# engine by 3x on JACOBI-384.
bench-native-smoke:
	$(DUNE) exec bench/main.exe -- native-smoke

# Predicted-vs-measured communication: the bench's symmetric-stencil
# matrix assertions, then --check-comm (static integer-set prediction
# joined against the simulated matrix, exact match required) on the
# Figure-7 applications under both a fault-free and a faulty schedule,
# on gauss's cyclic-VP cells and on sp_like's split nests.
metrics-smoke:
	$(DUNE) exec bench/main.exe -- metrics-smoke
	$(DHPFC) run jacobi -p 4 --check-comm > /dev/null
	$(DHPFC) run tomcatv -p 4 --check-comm > /dev/null
	$(DHPFC) run erlebacher -p 4 --check-comm > /dev/null
	$(DHPFC) run jacobi -p 4 --check-comm --faults 1 > /dev/null
	$(DHPFC) run gauss -p 4 --check-comm --faults 1 > /dev/null
	$(DHPFC) run sp_like -p 4 --check-comm > /dev/null

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

# every arm of `dhpfc run`'s one --diff* path: the serial oracle, the
# engine and domain differentials, and crash recovery; the -D run checks
# that a bound parameter reaches the oracle and the SPMD run alike; the
# domain sweeps cover scalar and element-wise collectives (jacobi,
# erlebacher), eight processors with many partners (tomcatv) and cyclic
# virtual processors (gauss)
resilience:
	$(DUNE) build @resilience
	$(DHPFC) run jacobi -p 4 --diff 2
	$(DHPFC) run jacobi -p 4 -D n=64 --diff 1
	$(DHPFC) run sp_like -p 4 --diff 1
	$(DHPFC) run jacobi -p 4 --diff-engines 2
	$(DHPFC) run jacobi -p 4 --diff-domains 2
	$(DHPFC) run erlebacher -p 4 --diff-engines 2
	$(DHPFC) run erlebacher -p 4 --diff-domains 2
	$(DHPFC) run tomcatv -p 8 --diff-domains 2
	$(DHPFC) run gauss -p 4 --diff-domains 2
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
