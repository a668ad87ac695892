// Package repro is a from-scratch Go reproduction of "Memory
// Persistency" (Pelley, Chen, Wenisch; ISCA 2014).
//
// The library models persistency — the ordering of NVRAM writes with
// respect to failure — as a consistency-like memory model, and
// reproduces the paper's evaluation: persist ordering constraint
// critical paths of a thread-safe persistent queue under strict, epoch
// (± racing), and strand persistency.
//
// Layout:
//
//	internal/core      persistency models + timing simulation (the contribution)
//	internal/exec      SC/PSO simulated multithreading (PIN-substitute tracer)
//	internal/memory    address spaces, heaps, crash images
//	internal/trace     memory-event model + binary codec
//	internal/locks     MCS/ticket/TAS locks on simulated memory
//	internal/graph     explicit persist-order DAGs, cycles, crash cuts, DOT
//	internal/observer  recovery observer: sampling + adversarial crash sweeps
//	internal/queue     the paper's persistent queue (CWL, 2LC) + recovery
//	internal/journal   redo-journaled metadata store workload
//	internal/pstm      durable undo-log transactions workload
//	internal/epochhw   BPFS-style epoch hardware, differentially validated
//	internal/nvram     device timing model, banks/channels, Start-Gap wear
//	internal/stats     summary stats, histograms, table rendering
//	internal/bench     Table 1 / Figures 2–5 harness + workload tables
//	internal/cli       shared flags, manifest, telemetry and exit path of the measuring commands
//	cmd/pqbench        regenerate the tables, figures, and ablations
//	cmd/crashsim       failure injection CLI (queue and journal)
//	cmd/tracedump      trace capture, inspection, DOT export
//	examples/          quickstart, ordering, wal, kvstore, fsmeta, relaxed
//
// See README.md for a walkthrough, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for paper-vs-measured results.
package repro
