// The repository benchmark is a module of its own so that it builds and
// runs from BENCHMARK.json's command without touching the root module's
// build, vet or test; the import path keeps it under the root module's
// path, which is what lets it import bingo's internal packages.
module github.com/bingo-rw/bingo/benchmark

go 1.22

require github.com/bingo-rw/bingo v0.0.0

replace github.com/bingo-rw/bingo => ../
