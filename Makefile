GO ?= go

.PHONY: all build vet test race verify fmt-check bench-smoke fuzz-smoke cover fuzz loc clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Tier-1 verify: what CI (ci.sh) and the roadmap require to stay green.
# bench-smoke proves every benchmark still compiles, runs one iteration and
# passes its in-run ratio assertion; it compares no timings — `go run ./bench`
# against BENCHMARK.json is the gate for numbers. fuzz-smoke gives each
# hostile-input surface a few seconds. cover enforces the per-package floors
# of COVERAGE_baseline.json.
verify: build vet race fmt-check bench-smoke fuzz-smoke cover

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# Coverage gate: every package listed in COVERAGE_baseline.json must stay at
# or above its floor (cmd/covercheck).
cover:
	$(GO) test -count=1 -cover ./... > .cover-run.txt
	$(GO) run ./cmd/covercheck COVERAGE_baseline.json < .cover-run.txt
	@rm -f .cover-run.txt

# Fuzz passes over the hostile-input surfaces: the transport decoders
# (buffered whole-response payload, the data plane's frame reader and
# payloads: allocation bounded by what arrived, whatever a header claims),
# the client's reading of a server's reply (exactly the result of one
# well-formed segment frame or an error, and a failed connection is never
# pooled),
# the metadata endpoint's frames (requests, responses, watch events: linear
# allocation, and whatever decodes re-encodes to an equal value), the layout of an
# intermediate where it lives (the bytes both cache tiers store: linear
# allocation, and whatever decodes re-encodes to an equal value), the
# query a request carries (linear allocation, and whatever decodes is the
# tree Parse builds from its rendering, or the broker's hybrid rewrite of
# one), the PQL parser (never panic, nesting bounded; an accepted query's
# rendering parses to the very same tree, and its canonical text is a
# fixpoint), the expression evaluator (a kernel over a block agrees with
# itself row by row and over a dictionary of the block's values, and fails
# with its lowest failing row's error), and the scan cursor's state machine
# (any mix of Next/Advance/nextBlock on any leaf and segment kind yields the
# per-document reference's docs and Stats; the consuming segment is read
# beside its writer), the stream-event decoder (any bytes get the verdict and the
# row of the encoding/json decode it replaced, with linear allocation), and
# the two loaders whose output is served in place (a segment blob with the
# star-tree inside it, and the posting lists of an inverted index: an error
# never a panic, allocation linear in the input whatever lengths it declares,
# and whatever is accepted reads to its end — every row, every posting list,
# a star-tree scan — and serializes again), and the packed-space range test
# over any width, chunk, ranges and words, padding bits included (the bits it
# sets are the ones per-value reads find in range), and the broker's table
# snapshot built from metadata znodes (config, external view, segment
# metadata: a state or an error, every online segment routed exactly once,
# the hybrid boundary the max over routed DONE segments). One list of
# targets, two durations:
# fuzz-smoke is the few-seconds pass verify runs on every PR.
fuzz: FUZZTIME = 10s
fuzz-smoke: FUZZTIME = 5s
fuzz fuzz-smoke:
	$(GO) test ./internal/transport -run NONE -fuzz=FuzzDecodeResponse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport -run NONE -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport -run NONE -fuzz=FuzzResponseStream -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/zkmeta -run NONE -fuzz=FuzzZKFrame -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/query -run NONE -fuzz=FuzzDecodeIntermediate -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/query -run NONE -fuzz=FuzzDecodeQuery -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/pql -run NONE -fuzz=FuzzParsePQL -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/expr -run NONE -fuzz=FuzzExprEval -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/query -run NONE -fuzz=FuzzScanCursor -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run NONE -fuzz=FuzzDecodeEvent -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/segment -run NONE -fuzz=FuzzSegmentUnmarshal -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/segment -run NONE -fuzz=FuzzPackedMatch -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/bitmap -run NONE -fuzz=FuzzBitmapView -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/broker -run NONE -fuzz=FuzzRoutingState -fuzztime=$(FUZZTIME)

# The counts ROADMAP aim 2 asks a PR to report in CHANGES.md: lines of
# non-test Go in every internal package, as wc counts them, and their total.
loc:
	@total=0; for d in internal/*/; do \
		n=$$(cat $$(ls $$d*.go | grep -v _test.go) | wc -l); total=$$((total + n)); \
		printf '%s %s\n' $${d%/} $$n; \
	done; printf 'total %s\n' $$total

clean:
	$(GO) clean ./...
