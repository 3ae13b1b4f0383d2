// Package dexpander reproduces "Improved Distributed Expander
// Decomposition and Nearly Optimal Triangle Enumeration" (Chang &
// Saranurak, PODC 2019) as a Go library: an (eps, phi)-expander
// decomposition for the CONGEST model (Theorem 1), the first distributed
// nearly most balanced sparse cut (Theorem 3), a high-probability
// low-diameter decomposition (Theorem 4), and the resulting
// ~O(n^{1/3})-round triangle enumeration (Theorem 2), together with a
// faithful CONGEST/CONGESTED-CLIQUE simulator, baselines, and a
// benchmark harness that regenerates every theorem's quantities.
//
// The simulator (internal/congest) is built for scale: a reusable
// Topology shared across protocol stages, a zero-allocation message
// path, and one serial delivery per round that moves every message in
// sender order. It has two drivers with identical Stats and inboxes:
// RunSteps calls every node's step function once per round on the
// caller's goroutine, and serves the busy protocols (the router's tree
// build and store-and-forward phases, the naive and CONGESTED-CLIQUE
// triangle baselines); Run gives every node a goroutine and a round
// barrier, and serves protocols composed from Next-calling helpers. A
// 10,000-node torus exchanging 40k messages per round runs at about 190
// simulated rounds per second under Run and 700 under RunSteps
// (BenchmarkRoundThroughput10k and BenchmarkRoundThroughputSteps, -cpu 2
// on a 2-vCPU x86-64 host); see the internal/congest package comment for
// the substrate's contracts and harness experiment E11 for the
// throughput table. The shared-memory triangle kernel is the skew-proof rank
// kernel: it reorders vertices by descending degree and keeps only each
// vertex's higher-rank neighbors (triangle.Forward), so forward lists
// are O(sqrt(m)) long and a hub's O(deg^2) wedge term disappears even on
// power-law inputs. Each triangle is charged to its lowest-rank vertex,
// and the rank space is cut into contiguous row ranges balanced by
// wedge work, which run as independent internal/par tasks. Listing
// (Forward.Set, behind triangle.SetKernel) and counting (Forward.Count,
// behind triangle.CountParallel2D) share that one schedule: the same
// cuts, pooled scratch, per-range cancellation probe and per-range
// trace span. A range's task marks a row's forward list once in an
// epoch-stamped array that is never cleared and probes each middle's
// list against the marks, galloping instead past gallopRatio skew
// (tuned via BenchmarkIntersectionStrategies), so a count does one pass
// of wedge work however many ranges it is cut into; the counting task
// body is shared with the multi-node count's replicas. A
// multi-node count preprocesses each snapshot once, as Tom & Karypis
// split preprocessing from counting: the coordinator builds the
// snapshot's forward CSR on its first count-dist job and keeps it, each
// replica receives it once as one whole-rank-space fragment and counts
// any row range straight from it, and each job then sends a replica
// only its share of the ranges, as at most DistWindow batched count
// requests.
// Both kernels are bit-identical to the sequential BruteForce oracle for
// every worker count; the bench baseline's enumerate-rank checksums,
// first recorded beside the retired merge kernel's identical ones,
// re-prove that on every CI run. Kernels are selectable per request via
// the service's "kernel" query parameter and trianglebench's -kernel
// flag.
//
// The decomposition stack runs on a sparse local walk engine
// (internal/spectral's WalkState): the truncated lazy walk at the heart
// of Nibble keeps an explicit support list over pooled, epoch-stamped
// buffers, so each step, truncation, sweep-cut construction, and
// participating-edge assembly costs O(vol(support)) with zero
// allocations at steady state — the locality Appendix A's analysis is
// built on, rather than O(n) per step. Each sweep's sort starts from the
// previous sweep's order, which the walk's slowly drifting rho values
// leave nearly sorted: an insertion pass under a 4k-move budget usually
// finishes it, and a full sort takes over otherwise. A step that leaves
// the truncated state bitwise unchanged ends the walk before T0, since
// every later step would repeat a sweep that already failed; step 1
// never does, as its predecessor chi_v was never swept. The engine is
// bit-identical to the dense reference walk, and both nibbles return what
// the dense originals return (pinned by oracle tests). graph.Sub views
// cache their member lists, alive degrees, and usable adjacency so
// whole-view algorithms stop re-filtering edges per query, and a sparse
// cut's independent walks run on a worker pool. Partition runs the
// iterations after an empty one speculatively in batches, since an empty
// iteration leaves the graph unchanged: it draws every start in serial
// order, merges each iteration's walks in seed order, and at the first
// peel discards the later walks and rewinds the RNG to the serial loop's
// state. The deterministic sparse cut runs each iteration's (start,
// scale) probes in parallel and reduces them in schedule order. Both are
// bit-identical for any worker count and GOMAXPROCS. Together these make
// the sequential Theorem 1 pipeline tens of times faster at
// thousand-vertex scales (see BenchmarkDecomposeSequential). Both sparse
// cuts also skip every walk on a view where a certificate proves every
// set's conductance above the largest one a sweep check accepts, so that
// no prefix can pass and each walk would return no cut. A dense Cholesky
// factorization with an explicit rounding margin (spectral.Lambda2Above)
// proves lambda2 above twice that conductance, which suffices by
// Cheeger's easy direction; where it fails, a product-demand
// multicommodity flow routed along BFS DAGs (spectral.ConductanceAbove)
// proves the conductance itself from the flow's congestion, which closes
// rings of cliques, whose lambda2/2 falls below their conductance.
// Partition then runs its loop and draws with a walk that returns no cut,
// so the cut, the iteration count and the caller's RNG state are
// unchanged. On the short benchmark matrix the first certificate takes
// the cs19 and det decompose cells from 2.3-367 ms to under 1 ms.
// The distributed sparse cut (internal/dnibble) runs the same Partition
// loop through nibble.PartitionWalk, with one worker and each walk
// executed in the CONGEST simulator, and its threshold probes apply the
// same (C.1*)–(C.3*) test, nibble.Params.Starred. It always walks, since
// its CONGEST rounds and messages are outputs.
//
// The decomposition and enumeration pipelines exploit the component
// parallelism their round accounting models: the vertex-disjoint tasks
// of a Phase 1 level, the independent Phase 2 components, par-cmps's
// clustering rounds, and a recursion level's component routing all run
// on a worker pool (Options.Workers in core and triangle; 0 =
// GOMAXPROCS, 1 = inline serial). In core every backend's stages go
// through one task fan-out, whose tasks all report one result type.
// Outputs are bit-identical to serial for any worker count via
// the seed-prefork / private-effects / ordered-merge discipline — seeds
// drawn from the shared counter in task order before dispatch, per-task
// removal logs over pooled private mask copies (respectively per-
// component triangle sets), and task-ordered merging — with sibling
// costs combined as max rounds but summed traffic
// (congest.Stats.CombineParallel), exactly how Theorems 1 and 2 charge
// simultaneous components. Equivalence to literal serial
// re-implementations and GOMAXPROCS sweeps are pinned by tests, and the
// benchmark baseline pins the -seq/-par cell checksum equality on every
// CI run.
//
// The serving layer (internal/service, served by cmd/dexpanderd) turns
// the library into a long-running system: immutable graph snapshots
// registered by upload (gzip and SNAP-style edge lists accepted) or
// generator spec and identified by an FNV fingerprint of the canonical
// edge list, with a single-flight result cache that runs each
// (snapshot, algorithm, params) computation exactly once on a bounded
// worker pool — queue-full requests fail fast with a retryable error
// instead of piling up goroutines. Served checksums are the same
// digests the bench matrix pins, so a live server's answers diff
// directly against library calls (TestServerEndToEnd and
// TestDistCountMatchesLocalKernel in internal/service do exactly that,
// and cmd/dexpanderd's TestFleetWiring boots a fleet from the daemon's
// own flags), and the serve-cold/serve-hot bench cells measure the HTTP
// path's first-query versus cached steady-state cost on every push. See
// internal/service/README.md for the architecture and endpoint schema.
//
// Performance is tracked by the scenario-matrix benchmark subsystem
// (internal/bench, driven by cmd/benchrunner): graph families x
// algorithms x sizes, each cell measured (wall time, simulated rounds
// and messages, allocations, triangles, output checksum) and emitted as
// versioned BENCH_*.json that CI compares against a checked-in baseline
// on every push. internal/bench/README.md documents the schema and how
// to add a scenario.
//
// See ROADMAP.md for the north star and open items, PAPER.md for the
// source paper's abstract, and CHANGES.md for the per-PR history.
package dexpander
