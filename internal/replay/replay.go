// Package replay is the parallel, batched trace-replay pipeline: it
// drives a concurrency-safe ShardedDirectory with a recorded (or
// synthesized) access stream through an asynchronous DirectoryEngine
// (internal/engine) and reports throughput, per-shard occupancy, the
// merged directory statistics and the engine's per-class latency.
//
// The paper's methodology replays identical access streams against every
// directory organization; internal/trace does that one record at a time
// through the functional simulator. This package is the scaled-up
// counterpart, shaped like the paper's home slices (§4.2): producers
// pack records into fixed-size batches and submit them detached, the
// engine queues each access at its home shard, and one drainer per
// queue applies it in batches under one lock acquisition, so the sharded
// front-end — not the generator — is the measured bottleneck. It is how
// "Trace-driven sharded replay" throughput numbers (accesses/sec across
// shard counts, producer counts and home functions) are produced; see
// DESIGN.md §6. A directory with a ^grow policy resizes online during
// the run: the drainers trigger and execute the migrations.
//
// Semantics versus the simulator path: replay feeds EVERY record to the
// directory as a fill (no private-cache hit filtering, no evictions), so
// it measures directory-side throughput under the full access stream —
// the worst case a directory front-end can see. The engine is per-shard
// FIFO, so with a single producer (Run) every shard applies its accesses
// in stream order, and the final directory state is identical to
// applying the stream one access at a time, whatever the drainer count.
// RunMulti's producers interleave at batch granularity, so its aggregate
// statistics (occupancy, attempt histogram, invalidation counts) are
// meaningful but per-access Op sequences are not. Use trace.Replay when
// bit-identical simulator state matters.
package replay

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/trace"
	"cuckoodir/internal/workload"
)

// Source yields trace records; io.EOF ends the stream. *trace.Reader
// satisfies it via TraceSource, and Synthesize generates records from a
// workload profile without touching disk.
type Source interface {
	Next() (trace.Record, error)
}

// readerSource adapts a *trace.Reader.
type readerSource struct{ r *trace.Reader }

func (s readerSource) Next() (trace.Record, error) { return s.r.Read() }

// TraceSource adapts a trace reader to the pipeline's Source.
func TraceSource(r *trace.Reader) Source { return readerSource{r} }

// synthSource generates records round-robin across cores — the same
// interleaving trace.Capture records, minus the file.
type synthSource struct {
	gens []*workload.Generator
	next int
	left int
}

// Synthesize returns a Source producing n records of the profile's
// access stream, interleaved round-robin over cores, deterministic in
// (profile, cores, seed) and identical to what trace.Capture with the
// same arguments would record.
func Synthesize(prof workload.Profile, cores int, seed uint64, n int) Source {
	gens := make([]*workload.Generator, cores)
	for c := range gens {
		gens[c] = workload.NewGenerator(prof, c, cores, seed)
	}
	return &synthSource{gens: gens, left: n}
}

func (s *synthSource) Next() (trace.Record, error) {
	if s.left <= 0 {
		return trace.Record{}, io.EOF
	}
	s.left--
	c := s.next
	s.next = (s.next + 1) % len(s.gens)
	return trace.Record{Core: c, Access: s.gens[c].Next()}, nil
}

// Options parameterize a replay run. The zero value is usable.
type Options struct {
	// BatchSize is the number of records per submitted batch (default
	// 256).
	BatchSize int
	// Engine configures the DirectoryEngine the records flow through
	// (drainers, queue depth, backpressure, QoS schedule, faults); the
	// zero value takes the engine's defaults.
	Engine engine.Options
	// Background is the fraction (0..1) of batches submitted as
	// qos.Background — the class-mix knob for driving a
	// foreground/background workload through the engine's QoS
	// scheduler. Batches alternate classes deterministically (a debt
	// accumulator, not a coin flip), so a run's class mix is exact and
	// reproducible. 0 (the default) submits everything Foreground.
	Background float64
}

// DefaultBatchSize is the records-per-batch default: large enough that
// per-submission overhead (routing, queue hop) amortizes, small
// enough that the engine's drainers see batches from several shards in
// flight at once.
const DefaultBatchSize = 256

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	return o
}

// validateBackground rejects an out-of-range class mix.
func (o Options) validateBackground() error {
	if o.Background < 0 || o.Background > 1 {
		return fmt.Errorf("replay: Background fraction %v out of range [0, 1]", o.Background)
	}
	return nil
}

// Result reports one replay run.
type Result struct {
	// Accesses is the number of records applied; Batches the number of
	// engine submissions they were packed into.
	Accesses uint64
	Batches  uint64
	// Dropped counts records a producer read but never applied: the
	// partial batch pending when a source or record error stopped it,
	// the record that failed conversion, and any batch the engine
	// refused (a refusal is all-or-nothing, so the count is exact).
	// Accesses + Dropped is always the number of records read. It is
	// zero on a clean run; when non-zero the accompanying error says
	// why.
	Dropped uint64
	// Elapsed is the wall time of the pipeline (reading, batching and
	// applying overlap; this is end-to-end).
	Elapsed time.Duration
	// Producers is the number of producing goroutines (one per source);
	// Drainers and BatchSize echo the engine's effective drainer count
	// and the effective batch size.
	Producers int
	Drainers  int
	BatchSize int
	// Stats is the merged directory statistics snapshot after the run.
	Stats *directory.Stats
	// Counters is the lock-free per-shard counter snapshot after the
	// run (directory.ShardCounters): unlike Stats it can also be polled
	// DURING a run via dir.Counters() without stalling any shard.
	Counters directory.ShardCounters
	// ShardLens is each shard's tracked-block count after the run;
	// Capacity the aggregate entry-slot capacity (0 when unbounded).
	ShardLens []int
	Capacity  int
	// Resizes is the online-resize snapshot after the run — non-zero
	// only when the directory carries a ^grow policy (the engine's
	// drainers trigger and execute the migrations) or the caller resized
	// shards explicitly while the run was in flight.
	Resizes directory.ResizeStats
	// Fault-containment fields: Shed counts submissions refused because
	// their deadline had already expired, Erred counts accesses whose run
	// completed with a contained-fault error instead of applying, and
	// GrowFailures counts automatic-grow attempts the directory rejected
	// — GrowError carries the most recent cause so a silent capacity
	// plateau is explainable from the run report alone.
	Shed         uint64
	Erred        uint64
	GrowFailures uint64
	GrowError    string
	// Classes holds one per-class QoS report per priority class: what
	// each class
	// submitted and completed, what the engine refused, and the
	// enqueue-to-completion percentiles its drainers recorded.
	Classes [qos.NumClasses]ClassReport
}

// ClassReport is one priority class's row in a Result.
type ClassReport struct {
	// Class identifies the row.
	Class qos.Class
	// SubmittedAccesses / CompletedAccesses count the class's accesses
	// accepted into the engine and applied to the directory.
	SubmittedAccesses uint64
	CompletedAccesses uint64
	// Rejected counts queue-full refusals, Shed pre-enqueue deadline
	// refusals — per-class backpressure made visible.
	Rejected uint64
	Shed     uint64
	// Samples counts the latency samples behind the percentiles below
	// (one per completed request).
	Samples uint64
	// P50/P99/P999 are enqueue-to-completion percentiles at power-of-two
	// resolution.
	P50, P99, P999 time.Duration
}

// Throughput returns replayed accesses per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Accesses) / r.Elapsed.Seconds()
}

// Entries returns the tracked-block total (the sum of ShardLens).
func (r Result) Entries() int {
	total := 0
	for _, n := range r.ShardLens {
		total += n
	}
	return total
}

// Occupancy returns Entries relative to Capacity (0 when unbounded).
func (r Result) Occupancy() float64 {
	if r.Capacity == 0 {
		return 0
	}
	return float64(r.Entries()) / float64(r.Capacity)
}

// ShardImbalance returns max/mean of the per-shard occupancy — 1.0 is a
// perfectly balanced home function, and low-bit interleaving over
// region-striped address streams shows up here first.
func (r Result) ShardImbalance() float64 {
	if len(r.ShardLens) == 0 {
		return 0
	}
	maxLen, total := 0, 0
	for _, n := range r.ShardLens {
		total += n
		if n > maxLen {
			maxLen = n
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(r.ShardLens))
	return float64(maxLen) / mean
}

// String renders the one-line report the CLI prints.
func (r Result) String() string {
	s := fmt.Sprintf(
		"%d accesses in %.2fs (%.0f acc/s, %d producers, %d drainers, batch %d): %.2f avg insertion attempts, %d forced invalidations, occupancy %.1f%%, shard imbalance %.2fx",
		r.Accesses, r.Elapsed.Seconds(), r.Throughput(), r.Producers, r.Drainers, r.BatchSize,
		r.Stats.Attempts.Mean(), r.Stats.ForcedEvictions, r.Occupancy()*100, r.ShardImbalance())
	if r.Resizes.Started > 0 {
		s += fmt.Sprintf("; %d/%d online resizes completed (%d entries migrated)",
			r.Resizes.Completed, r.Resizes.Started, r.Resizes.MigratedEntries)
	}
	if r.GrowFailures > 0 {
		s += fmt.Sprintf("; %d grow FAILURES (last: %s)", r.GrowFailures, r.GrowError)
	}
	if r.Shed > 0 || r.Erred > 0 {
		s += fmt.Sprintf("; %d submissions shed, %d accesses erred", r.Shed, r.Erred)
	}
	// Per-class QoS rows: latency percentiles per class, plus what the
	// class-aware backpressure refused. A class that saw no traffic
	// prints nothing.
	for _, c := range r.Classes {
		if c.Samples == 0 && c.SubmittedAccesses == 0 && c.Rejected == 0 && c.Shed == 0 {
			continue
		}
		s += fmt.Sprintf("; %s p50=%v p99=%v p999=%v (%d samples", c.Class, c.P50, c.P99, c.P999, c.Samples)
		if c.Rejected > 0 {
			s += fmt.Sprintf(", %d rejected", c.Rejected)
		}
		if c.Shed > 0 {
			s += fmt.Sprintf(", %d shed", c.Shed)
		}
		s += ")"
	}
	if r.Dropped > 0 {
		s += fmt.Sprintf("; %d records read but DROPPED un-applied", r.Dropped)
	}
	return s
}

// Run replays one source: it is RunMulti with a single producer, so
// every shard's accesses apply in stream order.
func Run(dir *directory.ShardedDirectory, src Source, o Options) (Result, error) {
	return RunMulti(dir, []Source{src}, o)
}

// RunMulti drives the pipeline: every source gets its own producing
// goroutine, a thin client of one DirectoryEngine over dir that packs
// its records into fixed-size batches and submits them detached. The
// engine routes each access to its home shard's queue and the drainers
// apply each shard's queue in FIFO order, so one producer's accesses to
// a shard apply in its stream order; several producers interleave at
// batch granularity. Reads become AccessRead, writes AccessWrite;
// record cores index tracked caches directly, so every core must be <
// dir.NumCaches().
//
// Close drains the engine before the clock stops, so Throughput covers
// completion, not just submission. Producers run their sources to
// completion; a source error, a bad record or a refused submission stops
// that producer, and the first such error (else the engine's Close
// error) is returned with the combined Result. Records read but not
// applied are counted in Result.Dropped rather than silently lost.
func RunMulti(dir *directory.ShardedDirectory, srcs []Source, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validateBackground(); err != nil {
		return Result{}, err
	}
	if len(srcs) == 0 {
		return Result{}, fmt.Errorf("replay: RunMulti needs at least one source")
	}
	eng, err := engine.New(dir, o.Engine)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Producers: len(srcs),
		Drainers:  eng.Options().Drainers,
		BatchSize: o.BatchSize,
	}
	numCaches := dir.NumCaches()
	subResults := make([]Result, len(srcs))
	errs := make([]error, len(srcs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src Source) {
			defer wg.Done()
			errs[i] = produce(eng, src, numCaches, o.BatchSize, o.Background, &subResults[i])
		}(i, src)
	}
	wg.Wait()
	closeErr := eng.Close()
	for i := range subResults {
		res.Accesses += subResults[i].Accesses
		res.Batches += subResults[i].Batches
		res.Dropped += subResults[i].Dropped
		if err == nil {
			err = errs[i]
		}
	}
	if err == nil {
		err = closeErr
	}
	res.Elapsed = time.Since(start)
	captureEngineHealth(eng, &res)
	res.Counters = dir.Counters()
	res.Stats = dir.Stats()
	res.ShardLens = dir.ShardLens()
	res.Capacity = dir.Capacity()
	res.Resizes = dir.ResizeStats()
	return res, err
}

// captureEngineHealth copies the engine's fault-containment tallies
// into the Result after the engine has drained (Close has returned, so
// the counters are final).
func captureEngineHealth(eng *engine.Engine, res *Result) {
	st := eng.Stats()
	res.Shed = st.Shed
	res.Erred = st.ErredAccesses
	res.GrowFailures = st.GrowFailures
	if h := eng.Health(); h.LastGrowError != nil {
		res.GrowError = h.LastGrowError.Error()
	}
	for c := range st.Classes {
		cs := st.Classes[c]
		p50, p99, p999 := cs.Latency.Percentiles()
		res.Classes[c] = ClassReport{
			Class:             qos.Class(c),
			SubmittedAccesses: cs.SubmittedAccesses,
			CompletedAccesses: cs.CompletedAccesses,
			Rejected:          cs.Rejected,
			Shed:              cs.Shed,
			Samples:           cs.Latency.Count(),
			P50:               p50,
			P99:               p99,
			P999:              p999,
		}
	}
}

// recordAccess converts one trace record to the directory access it
// replays as, rejecting out-of-range cores.
func recordAccess(rec trace.Record, numCaches int) (directory.Access, error) {
	if rec.Core < 0 || rec.Core >= numCaches {
		return directory.Access{}, fmt.Errorf("replay: record core %d out of range (directory tracks %d caches)", rec.Core, numCaches)
	}
	kind := directory.AccessRead
	if rec.Access.Write {
		kind = directory.AccessWrite
	}
	return directory.Access{Kind: kind, Addr: rec.Access.Addr, Cache: rec.Core}, nil
}

// produce reads src to EOF, submitting fixed-size detached batches to
// eng and tallying into res. On an error every record read but not
// applied — the pending batch, the bad record, or the refused batch —
// is counted as dropped. The background fraction is paid down with a
// debt accumulator — every 1.0 of accumulated debt makes the next batch
// Background — so the class mix is exact over any run length and
// identical across runs.
func produce(eng *engine.Engine, src Source, numCaches, batchSize int, background float64, res *Result) error {
	ctx := context.Background()
	batch := make([]directory.Access, 0, batchSize)
	bgDebt := 0.0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		class := qos.Foreground
		if bgDebt += background; bgDebt >= 1 {
			bgDebt--
			class = qos.Background
		}
		if _, err := eng.Submit(ctx, batch, engine.SubmitOptions{Class: class, Detached: true}); err != nil {
			res.Dropped += uint64(len(batch))
			return err
		}
		res.Accesses += uint64(len(batch))
		res.Batches++
		batch = batch[:0]
		return nil
	}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return flush()
		}
		if err != nil {
			res.Dropped += uint64(len(batch))
			return err
		}
		acc, err := recordAccess(rec, numCaches)
		if err != nil {
			res.Dropped += uint64(len(batch)) + 1
			return err
		}
		batch = append(batch, acc)
		if len(batch) == batchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
}

// ReplayTrace replays a recorded trace through the sharded directory.
// The trace's core count must not exceed the directory's tracked-cache
// count (each core drives the same-numbered cache).
func ReplayTrace(dir *directory.ShardedDirectory, r *trace.Reader, o Options) (Result, error) {
	if r.Cores() > dir.NumCaches() {
		return Result{}, fmt.Errorf("replay: trace has %d cores but the directory tracks only %d caches",
			r.Cores(), dir.NumCaches())
	}
	return Run(dir, TraceSource(r), o)
}

// ReplayWorkload synthesizes n accesses of the profile (round-robin over
// cores, as trace.Capture would record) and replays them — the
// trace-free path for sweeps and benchmarks.
func ReplayWorkload(dir *directory.ShardedDirectory, prof workload.Profile, cores int, seed uint64, n int, o Options) (Result, error) {
	if cores <= 0 || cores > dir.NumCaches() {
		return Result{}, fmt.Errorf("replay: %d cores out of range (directory tracks %d caches)", cores, dir.NumCaches())
	}
	return Run(dir, Synthesize(prof, cores, seed, n), o)
}
