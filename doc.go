// Package fogbuster is a from-scratch reproduction of "Gate Delay Fault
// Test Generation for Non-Scan Circuits" (van Brakel, Gläser, Kerkhoff,
// Vierhaus; ED&TC/DATE 1995): robust gate delay fault ATPG for synchronous
// sequential circuits without scan, coupling the TDgen local two-frame
// generator with the SEMILET/FOGBUSTER sequential engine and the
// FAUSIM/TDsim fault simulators.
//
// The one supported entry point is fogbuster/pkg/atpg: validated
// configuration, context-aware cancellable sessions, an ordered event
// stream, and canonical JSON results. A complete run is four calls:
//
//	c, err := atpg.Benchmark("s27")            // or atpg.LoadBench("circuit.bench")
//	ses, err := atpg.New(c, atpg.Config{})     // errors, never panics, on bad config
//	ses.OnEvent(func(ev atpg.Event) { ... })   // optional live progress / sequences
//	res, err := ses.Run(ctx)                   // partial deterministic Result on cancel
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory; §8 documents the API layer's stability contract) and may
// change shape freely between commits. The simulation substrate shared
// by sim, tdsim, fausim and semilet is the flat CSR topology
// (sim.Topology: structure-of-arrays fanin/fanout edge arrays,
// level-bucketed gate order, fanout-cone bitsets); every evaluator
// exists both as a full levelized walk and as an event-driven
// selective-trace kernel over that topology which re-evaluates only the
// fanout cones of changed sources, bit-identical by contract
// (core.Options.Reference forces the full walks, together with the
// scalar credit sweep and search, as the reference oracle). Command
// line tools live under cmd/ and runnable examples under examples/, all
// consuming pkg/atpg exclusively — with the
// sanctioned exceptions listed, with their reasons, in internal/lint's
// exemption table: chiefly cmd/atpgd, the ATPG-as-a-service daemon, a
// thin shell over internal/service (multi-tenant job scheduler,
// content-hash circuit/result caches, HTTP + SSE handlers; DESIGN.md
// §10), which itself consumes the engine only through pkg/atpg. That
// boundary — along with engine-package determinism, scalar/batched
// oracle pairing, mutex/atomic hygiene, and canonical-JSON tag
// discipline — is machine-checked by the house analyzer suite in
// internal/lint, runnable as `go run ./cmd/atpglint ./...` (DESIGN.md
// §13). The benchmarks
// in bench_test.go regenerate every table and figure of the paper's
// evaluation; EXPERIMENTS.md records the measured results against the
// paper's.
package fogbuster
