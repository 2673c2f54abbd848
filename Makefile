.PHONY: all build test lint check check-range figures bench-quick explain clean

all: build

build:
	dune build

test:
	dune runtest

lint: build
	dune exec bin/transfusion_cli.exe -- lint

# The gate CI runs: full build, test suite, and the static analyzer
# over every built-in preset.
check:
	dune build @check-all

# Range certification: certify the bucketed serving band once instead of
# linting every bucket, then re-validate each emitted certificate with
# the independent checker.  Besides the frozen self-attention tiling, a
# decode band (a fixed multi-token query over the KV-cache length) and
# a resident band (m1 = n/m0 grows with the sequence).  A copy whose
# step is not RFC 8259 JSON ("step":+512) must fail validation (exit 1).
check-range:
	dune exec bin/transfusion_cli.exe -- check --range 512:16384 --model T5 --json cert.json
	dune exec bin/transfusion_cli.exe -- check --validate cert.json
	sed 's/"step":512/"step":+512/' cert.json > cert-nonjson.json
	grep -q '"step":+512' cert-nonjson.json
	dune exec bin/transfusion_cli.exe -- check --validate cert-nonjson.json; test $$? -eq 1
	dune exec bin/transfusion_cli.exe -- check --attention decode --seq 4 --range 1024:16384 \
		--model T5 --json cert-decode.json
	dune exec bin/transfusion_cli.exe -- check --validate cert-decode.json
	dune exec bin/transfusion_cli.exe -- check --attention causal --policy resident --batch 1 \
		--range 256:1024 --model BERT --json cert-resident.json
	dune exec bin/transfusion_cli.exe -- check --validate cert-resident.json

figures:
	dune exec bin/transfusion_cli.exe -- figures --quick

# Reduced-sweep benchmark with machine-readable timings (bench.json).
bench-quick:
	dune exec bench/main.exe -- --quick --json bench.json

# Simulation telemetry: per-Einsum stall attribution + search
# convergence (explain.json) and a Perfetto-loadable simulated
# timeline (sim-trace.json).
explain:
	dune exec bin/transfusion_cli.exe -- explain \
		--json explain.json --sim-trace sim-trace.json

clean:
	dune clean
