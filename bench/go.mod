// The benchmark is a module of its own because the benchmark driver's
// contract requires it: a compiled benchmark is a package of its own in
// the benchmark's directory with its own build file. The root module's
// `go build ./...` / `go test ./...` therefore never see it (README.md
// lists the checks to run here). The module path sits under `repro/`,
// which is what lets it import `repro/internal/...`.
module repro/bench

go 1.21

require repro v0.0.0

replace repro => ../
