# Convenience targets; see scripts/check.sh for the pre-commit gate and
# scripts/bench.sh for the perf harness.

.PHONY: build test vet escape doclint fuzz-smoke bench bench-smoke live-smoke chaos-smoke check

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...
	go run ./cmd/mpq-vet ./...

escape:
	go run ./cmd/mpq-escape ./...

doclint:
	go run ./scripts/doclint.go

fuzz-smoke:
	go test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=30s ./internal/wire
	go test -run='^$$' -fuzz='^FuzzDecodeBorrowed$$' -fuzztime=30s ./internal/wire
	go test -run='^$$' -fuzz='^FuzzLiveIngress$$' -fuzztime=30s ./internal/live
	go test -run='^$$' -fuzz='^FuzzRecvStream$$' -fuzztime=30s ./internal/stream

bench:
	sh scripts/bench.sh

bench-smoke:
	sh scripts/bench.sh -smoke

live-smoke:
	sh scripts/live_smoke.sh

chaos-smoke:
	sh scripts/chaos_smoke.sh

check:
	sh scripts/check.sh
