// Package repro is a from-scratch Go reproduction of "RTLFixer:
// Automatically Fixing RTL Syntax Errors with Large Language Models"
// (Tsai, Liu, Ren — DAC 2024).
//
// The public entry point is internal/core.RTLFixer, which wires the
// paper's feedback loop together: a deterministic rule-based pre-fixer, a
// Verilog compiler frontend with three feedback personas, a curated
// retrieval database of human expert guidance, and a simulated LLM driven
// as an autonomous agent through ReAct prompting.
//
// Every table and figure of the paper's evaluation is regenerated by the
// benchmarks in bench_test.go and by cmd/benchmark, which fan the agent
// runs out over the internal/pipeline worker pool and memoize the compile
// and retrieval hot paths through internal/memo — output is byte-identical
// for any worker count and to an uncached fixer's.
//
// The functional oracle behind pass@k is the problem's reference RTL:
// as in VerilogEval, a candidate is driven with the reference's
// stimulus and must match every reference output after every cycle, so
// each problem has one specification of its correct output. The
// reference's response to a stimulus is recorded once and shared by
// every sample scored under it. Both run on a compiled cycle simulator: internal/sim
// lowers each elaborated design once into a slot-indexed instruction
// program (topologically scheduled combinational logic, bounded fixpoint
// only for genuine feedback) and runs steady-state cycles with zero heap
// allocations via internal/bitvec's in-place operations — 6-11x over the
// legacy tree-walker, which survives only as the bit-identical
// differential oracle. Compiled programs are content-addressed
// in memo.SimCache beside the compile cache, so repeated checks of one
// source, the reference's included, pay one compile; both caches build
// on one process-wide frontend artifact per source, so the personas and
// the oracle parse a source once between them.
//
// The fix loop also runs as a long-lived service: internal/server (daemon:
// cmd/rtlfixerd, traffic generator: cmd/loadgen) serves POST /v1/fix with
// bounded admission, single-flight coalescing of identical requests, a
// fixed set of runners that take admitted requests in FIFO order,
// per-request deadlines,
// graceful drain on SIGTERM, and live /v1/stats metrics.
//
// The service is observable end to end: internal/trace threads a
// zero-cost-when-off span layer through admission, queueing, dispatch,
// every agent iteration, and each compile/retrieval/LLM/simulation step.
// Recent and slow traces are retained in a bounded ring served at GET
// /v1/trace (list) and /v1/trace/{id} (span tree); GET /metrics exposes
// the counters, latency histograms, and per-stage duration histograms in
// Prometheus text format without a client library; requests carry
// propagated-or-assigned X-Request-ID headers with optional structured
// access logs; and successful fixes are smoke-checked in simulation
// (elaborate, settle, one clock pulse) with outcomes visible only to the
// monitoring plane.
//
// Observability reaches inside the simulator through internal/wave: an
// observer seam on the simulation facade (one nil check, zero
// allocations per cycle when detached) feeds VCD waveform capture
// windowed around the first testbench mismatch, per-bit toggle and
// per-process activity coverage compressed into fixed-size signatures,
// and compiled-engine execution profiles (opcode histograms, fixpoint
// iterations, hottest-process attribution). The observers ride the
// differential fuzzer as coverage-guided corpus admission
// (fuzz -coverage), the testbench failure path as waveform excerpts in
// simulation feedback, the CLI tools as -coverage/-vcd flags, and the
// daemon's sim smoke checks as the /v1/stats "sim" section and the
// rtlfixer_sim_* Prometheus families.
//
// The service is also built to degrade rather than die: internal/fault
// is a deterministic, zero-cost-when-off fault-injection framework
// (named points for stalls and panics; the schedule is a pure function
// of seed and occurrence), and internal/resilience supplies what the
// injected faults exercise — panic isolation in pipeline workers and
// HTTP handlers (typed 500s, the daemon stays up); watchdogs over the
// sim check, charged every loop trip; and a degradation ladder that sheds best-effort
// surfaces (lint, tracing) under overload. /v1/readyz reports
// routability (prewarm, drain) while /v1/healthz stays pure liveness;
// scripts/chaos_smoke.sh is the gate that proves the daemon survives a
// chaos workload with every fault isolated and counted.
//
// See README.md for the quickstart, DESIGN.md for the system inventory,
// pipeline and server architecture, and EXPERIMENTS.md
// for paper-vs-measured results.
package repro
