package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"cuckoodir/internal/coherence"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/qos"
)

// A run sets its system up at least minSetups times and until
// setupBudget has been spent (at most maxSetups); setup_s is the median,
// and the last set-up is the one measured.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 4 * time.Second
)

// moreSetups reports whether another set-up is due after the given ones.
func moreSetups(setups []float64) bool {
	return len(setups) < minSetups || (sum(setups) < setupBudget.Seconds() && len(setups) < maxSetups)
}

// minWindows is the fewest whole windows an end-to-end measured phase
// runs, whatever --seconds says.
const minWindows = 3

// crossCheckLen is the stream prefix the engine/direct cross-check
// replays.
const crossCheckLen = 1 << 17

// Shares of --seconds a traced run gives its phases: the untraced
// reference phase and the traced phase each get mainShare, every layer
// replay replayShare.
const (
	mainShare   = 0.25
	replayShare = 0.08
)

func share(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(wl workloadDef, seed uint64, budget time.Duration, r *report) {
	var setups []float64
	var heapBytes uint64
	switch wl.kind {
	case engineKind:
		accs := accessStream(mustProfile(wl.profile), wl.cores, seed, wl.streamLen)
		note("input %d accesses, digest %016x", len(accs), digest(accs))
		batches := batchesOf(accs, batchSize)
		base := liveHeap()
		var p *enginePhase
		for moreSetups(setups) {
			if p != nil {
				if err := p.rig.eng.Close(); err != nil {
					r.check(false, "close: %v", err)
				}
				p = nil
			}
			liveHeap() // collect the previous set-up outside the timed one
			var err error
			if p, err = setupEngine(wl.dir, batches, nil); err != nil {
				r.check(false, "setup: %v", err)
				return
			}
			setups = append(setups, p.setup.Seconds())
		}
		heapBytes = liveHeap() - base
		p.measure(batches, minWindows, budget, nil)
		p.check(r, "measured phase")
		c := delta(p.ctrEnd, p.ctrWarm)
		note("measured directory: %d ops, %.4f inserts/op, %.2f attempts/insert, %.4f forced/insert, len %d",
			c.Ops(), ratio(float64(c.Inserts), float64(c.Ops())), ratio(float64(c.Attempts), float64(c.Inserts)),
			ratio(float64(c.Forced), float64(c.Inserts)), p.rig.dir.Len())
		crossCheck(wl.dir, accs[:crossCheckLen], r)
		windowed(p.meas.collect(func(c clientResult) []float64 { return c.ends }),
			p.meas.collect(func(c clientResult) []float64 { return c.lat }), batchSize, len(batches), r)
		r.attempted = p.meas.accesses() + p.meas.failed()
		r.failed = p.meas.failed()
	default:
		note("input: first 65536 generator references, digest %016x",
			digest(accessStream(mustProfile(wl.profile), wl.cores, seed, 1<<16)))
		base := liveHeap()
		var p *simPhase
		for moreSetups(setups) {
			p = nil
			liveHeap() // collect the previous set-up outside the timed one
			p = setupSim(wl.kind, wl.dir, wl.profile, seed, wl.warmRefs, nil, nil)
			setups = append(setups, p.setup.Seconds())
		}
		heapBytes = liveHeap() - base
		p.measure(wl.exactRefs, minWindows*simWindow, budget, nil)
		printSnap(p.exact)
		if err := p.sys.check(); err != nil {
			r.check(false, "consistency: %v", err)
		}
		windowed(p.ends, p.chunks, simChunk, simWindow/simChunk, r)
		r.attempted = p.refs
	}
	note("setup times %v s", setups)
	r.add("setup_s", "s", median(setups))
	r.add("heap_mib", "MiB", float64(heapBytes)/(1<<20))
	note("fail_ratio %g (%d of %d accesses)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
}

// windowed reports acc_per_s, batch_p50_us and batch_p99_us from the
// completed batches of a measured phase: ends[i] is when batch i
// completed (ns since the phase started), lat[i] its latency in ns, and
// every batch carries per accesses. The phase is cut into windows of
// size completed batches each (an engine workload's window is one pass
// over its input stream, whose cost varies along the stream). Each
// metric is the quartile across whole windows on the fast side: the
// 75th percentile of window rates, the 25th of window latency
// percentiles. Host contention only ever slows a window, and on a
// shared 2-vCPU machine it comes in episodes of seconds; this way
// episodes covering up to three quarters of a run do not move the
// result, while a change that slows every window still does.
func windowed(ends, lat []float64, per, size int, r *report) {
	idx := make([]int, len(ends))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ends[idx[a]] < ends[idx[b]] })
	var rates, p50s, p99s []float64
	prev := 0.0
	for lo := 0; lo+size <= len(idx); lo += size {
		w := make([]float64, size)
		for k, i := range idx[lo : lo+size] {
			w[k] = lat[i]
		}
		end := ends[idx[lo+size-1]]
		rates = append(rates, float64(size*per)/((end-prev)/1e9))
		p50s = append(p50s, percentile(w, 0.5))
		p99s = append(p99s, percentile(w, 0.99))
		prev = end
	}
	note("batch latency samples: %d; %d windows of %d batches; window rates %.0f; window p99 %.0f us", len(lat), len(rates), size, rates, scale(p99s, 1e-3))
	r.add("acc_per_s", "1/s", quantile(rates, 0.75))
	r.add("batch_p50_us", "us", quantile(p50s, 0.25)/1e3)
	r.add("batch_p99_us", "us", quantile(p99s, 0.25)/1e3)
}

func printSnap(s simSnap) {
	note("simulated at %d refs: %+v", s.refs, s)
}

// runTraced measures the per-layer metrics: an untraced reference
// phase, a traced phase of the workload's own path, and the layer
// replays, each on the workload's own stream at that layer's boundary.
func runTraced(wl workloadDef, seed uint64, budget time.Duration, outDir string, r *report) {
	tr := newTracer()
	replay := share(budget, replayShare)
	var (
		untracedRate, tracedRate float64
		proc                     procStats
		procRefs                 uint64
		layerEvents              []directory.Access // the directory-boundary stream
		homes                    *directory.ShardedDirectory
		sumSelf                  float64
	)
	nextNs := replayWorkload(wl.profile, wl.cores, seed, replay, tr.recorder())
	r.add("workload.next_ns", "ns", nextNs)

	switch wl.kind {
	case engineKind:
		accs := accessStream(mustProfile(wl.profile), wl.cores, seed, wl.streamLen)
		note("input %d accesses, digest %016x", len(accs), digest(accs))
		batches := batchesOf(accs, batchSize)
		layerEvents = accs

		plain, err := setupEngine(wl.dir, batches, nil)
		if err != nil {
			r.check(false, "setup: %v", err)
			return
		}
		plain.measure(batches, 1, share(budget, mainShare), nil)
		plain.check(r, "untraced phase")
		untracedRate = float64(plain.meas.accesses()) / plain.meas.elapsed.Seconds()
		homes = plain.rig.dir
		proc, procRefs = plain.proc, plain.meas.accesses()
		r.attempted, r.failed = plain.meas.accesses()+plain.meas.failed(), plain.meas.failed()

		traced, err := setupEngine(wl.dir, batches, tr)
		if err != nil {
			r.check(false, "traced setup: %v", err)
			return
		}
		traced.measure(batches, 1, share(budget, mainShare), tr)
		traced.check(r, "traced phase")
		tracedRate = float64(traced.meas.accesses()) / traced.meas.elapsed.Seconds()
		r.attempted += traced.meas.accesses() + traced.meas.failed()
		r.failed += traced.meas.failed()
		engineMetrics(traced, r)
		c := delta(traced.ctrEnd, traced.ctrWarm)
		r.add("directory.inserts_per_acc", "ratio", ratio(float64(c.Inserts), float64(c.Reads+c.Writes)))
		r.add("directory.attempts_per_insert", "ratio", ratio(float64(traced.ctrEnd.Attempts), float64(traced.ctrEnd.Inserts)))
		r.add("directory.forced_per_insert", "ratio", ratio(float64(traced.ctrEnd.Forced), float64(traced.ctrEnd.Inserts)))
		r.add("directory.occupancy", "ratio", float64(traced.rig.dir.Len())/float64(traced.rig.dir.Capacity()))
		n := evictSweep(traced.rig.dir, 1<<16)
		note("evict sweep: %d evictions on the traced phase's final directory", n)
		sliceCosts(mergeSlices(traced.rig.slices), r)

		shardedNs, imb := replaySharded(plain.rig.dir, accs, replay, tr.recorder())
		r.add("sharded.apply_ns_per_acc", "ns", shardedNs)
		r.add("sharded.imbalance", "ratio", imb)
		crossCheck(wl.dir, accs[:crossCheckLen], r)

		engSelf := engineSelf(traced)
		sumSelf = engSelf + shardedNs
		note("layer self ns/acc: engine %.1f + sharded front-end incl. slices %.1f", engSelf, shardedNs)
		simReplay(cmpsimKind, wl, seed, nextNs, tr, r)
		simReplay(coherenceKind, wl, seed, nextNs, tr, r)

	default:
		plain := setupSim(wl.kind, wl.dir, wl.profile, seed, wl.warmRefs, nil, nil)
		plain.measure(wl.exactRefs, wl.exactRefs, share(budget, mainShare), nil)
		if err := plain.sys.check(); err != nil {
			r.check(false, "untraced consistency: %v", err)
		}
		untracedRate = float64(plain.refs) / plain.elapsed.Seconds()
		proc, procRefs = plain.proc, plain.refs

		capt := &capture{limit: 1 << 19}
		traced := setupSim(wl.kind, wl.dir, wl.profile, seed, wl.warmRefs, tr, capt)
		traced.measure(wl.exactRefs, wl.exactRefs, share(budget, mainShare), tr.recorder())
		if err := traced.sys.check(); err != nil {
			r.check(false, "traced consistency: %v", err)
		}
		tracedRate = float64(traced.refs) / traced.elapsed.Seconds()
		r.attempted = plain.refs + traced.refs
		printSnap(plain.exact)
		r.check(plain.exact == traced.exact, "simulated statistics differ between the untraced and traced runs:\n  %+v\n  %+v", plain.exact, traced.exact)
		simMetrics(wl.kind, traced, nextNs, r)
		other := coherenceKind
		if wl.kind == coherenceKind {
			other = cmpsimKind
		}
		simReplay(other, wl, seed, nextNs, tr, r)
		sliceCosts(mergeSlices(traced.slices), r)
		e := traced.exact
		r.add("directory.inserts_per_acc", "ratio", ratio(float64(e.inserts), float64(e.refs)))
		r.add("directory.attempts_per_insert", "ratio", ratio(float64(e.attempts), float64(e.inserts)))
		r.add("directory.forced_per_insert", "ratio", ratio(float64(e.forced), float64(e.inserts)))
		r.add("directory.occupancy", "ratio", float64(e.dirLen)/float64(e.dirCap))
		sumSelf = sum(traced.chunks) / float64(traced.refs)
		note("layer self ns/ref: simulator + slices + generator = %.1f", sumSelf)

		// The engine and sharded front-end replays take the captured
		// directory event stream: warm-up on its first half, measure
		// on its second.
		layerEvents = capt.events
		half := len(layerEvents) / 2
		eng, err := setupEngine(wl.dir, batchesOf(layerEvents[:half], batchSize), tr)
		if err != nil {
			r.check(false, "engine replay setup: %v", err)
			return
		}
		eng.measure(batchesOf(layerEvents[half:], batchSize), 1, replay, tr)
		eng.check(r, "engine replay")
		engineMetrics(eng, r)
		homes = eng.rig.dir
		shardedNs, imb := replaySharded(eng.rig.dir, layerEvents[half:], replay, tr.recorder())
		r.add("sharded.apply_ns_per_acc", "ns", shardedNs)
		r.add("sharded.imbalance", "ratio", imb)
	}

	shard0 := shardStream(homes, layerEvents, 0)
	r.add("hashfn.index_all_ns", "ns", replayHashfn(wl.dir, shard0, replay, tr.recorder()))
	cr := replayCore(wl.dir, shard0, replay, tr.recorder())
	note("core replay: %d finds, %d inserts, %.2f attempts/insert, %d evicted", cr.finds, cr.inserts,
		ratio(float64(cr.attempts), float64(cr.inserts)), cr.evicted)
	r.add("core.table_find_ns", "ns", cr.findNs)
	r.add("core.table_insert_ns", "ns", cr.insertNs)

	r.add("go.cpu_ns_per_acc", "ns", float64(proc.cpu)/float64(procRefs))
	r.add("go.alloc_bytes_per_acc", "B", float64(proc.totalAlloc)/float64(procRefs))
	r.add("go.gc_cycles", "count", float64(proc.numGC))
	r.add("layers.self_ns_per_acc_sum", "ns", sumSelf)
	note("sum of layer self times %.1f ns/acc next to go.cpu_ns_per_acc %.1f", sumSelf, float64(proc.cpu)/float64(procRefs))
	r.add("fail_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)))

	r.add("trace.overhead", "ratio", tracedRate/untracedRate)
	note("trace overhead: traced %.0f acc/s over untraced %.0f acc/s; clock read %.1f ns, 1 in %d slice calls timed",
		tracedRate, untracedRate, tr.clockNs, sampleEvery)
	kept, dropped := tr.spanCount()
	r.add("trace.spans", "count", float64(kept+dropped))
	for _, l := range tr.selfTimes() {
		note("span %-26s count %9d total %10.3f ms self %10.3f ms", l.name, l.count, l.total/1e6, l.self/1e6)
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s.jsonl", wl.name))
	if err := tr.writeSpans(path); err != nil {
		r.check(false, "writing spans: %v", err)
	} else {
		note("spans: %d recorded, the first %d of each recorder (%d in all) written to %s", kept+dropped, keptPerRecorder, kept, path)
	}
}

// sliceCosts reports the decorator's sampled slice-call costs.
func sliceCosts(s sliceStats, r *report) {
	for k, name := range []string{"directory.read_ns", "directory.write_ns", "directory.evict_ns"} {
		r.check(len(s.samples[k]) > 0, "no sampled %s calls", name)
		r.add(name, "ns", median(s.samples[k]))
	}
	note("slice calls: %d reads, %d writes, %d evicts; sampled %d/%d/%d",
		s.calls[callRead], s.calls[callWrite], s.calls[callEvict],
		len(s.samples[callRead]), len(s.samples[callWrite]), len(s.samples[callEvict]))
}

// engineSelf is the engine's own time per access: client batch time
// minus the slices' estimated time, per access.
func engineSelf(p *enginePhase) float64 {
	client := 0.0
	for _, c := range p.meas.clients {
		client += c.clientNs
	}
	slice := mergeSlices(p.rig.slices).estimatedNs()
	return (client - slice) / float64(p.meas.accesses())
}

// engineMetrics reports the engine layer of a traced engine phase.
func engineMetrics(p *enginePhase, r *report) {
	us := func(xs []float64, q float64) float64 { return percentile(xs, q) / 1e3 }
	submit := p.meas.collect(func(c clientResult) []float64 { return c.submit })
	wait := p.meas.collect(func(c clientResult) []float64 { return c.wait })
	r.add("engine.submit_us_p50", "us", us(submit, 0.5))
	r.add("engine.wait_us_p50", "us", us(wait, 0.5))
	r.add("engine.wait_us_p99", "us", us(wait, 0.99))
	q := p.statsEnd.Classes[qos.Foreground].Latency
	w := p.statsWarm.Classes[qos.Foreground].Latency
	for b := range q.Buckets {
		q.Buckets[b] -= w.Buckets[b]
	}
	r.add("engine.queue_us_p50", "us", float64(q.Percentile(0.5))/1e3)
	r.add("engine.queue_us_p99", "us", float64(q.Percentile(0.99))/1e3)
	r.add("engine.self_ns_per_acc", "ns", engineSelf(p))
	r.add("engine.requests_per_batch", "count",
		ratio(float64(p.statsEnd.SubmittedRequests-p.statsWarm.SubmittedRequests), float64(p.meas.batches())))
	r.add("engine.rejected", "count", float64(p.statsEnd.Rejected-p.statsWarm.Rejected))
	r.add("engine.shed", "count", float64(p.statsEnd.Shed-p.statsWarm.Shed))
	r.add("engine.erred", "count", float64(p.statsEnd.ErredAccesses-p.statsWarm.ErredAccesses))
}

// Simulator replays other workloads run in their traced pass: fixed
// lengths, so their simulated counts repeat exactly for a seed.
const (
	replayWarmRefs  = 1 << 17
	replayExactRefs = 1 << 18
)

// simReplay runs simulator k on the workload's profile and seed with
// k's own slice geometry, untraced and then decorated, requires the two
// runs' simulated statistics to be identical and consistent, and
// reports the decorated run's metrics.
func simReplay(k kind, wl workloadDef, seed uint64, nextNs float64, tr *tracer, r *report) {
	g, name := functionalGeom, "cmpsim"
	if k == coherenceKind {
		g, name = timedGeom, "coherence"
	}
	plain := setupSim(k, g, wl.profile, seed, replayWarmRefs, nil, nil)
	plain.measure(replayExactRefs, replayExactRefs, 0, nil)
	p := setupSim(k, g, wl.profile, seed, replayWarmRefs, tr, nil)
	p.measure(replayExactRefs, replayExactRefs, 0, tr.recorder())
	for _, s := range []*simPhase{plain, p} {
		if err := s.sys.check(); err != nil {
			r.check(false, "%s replay consistency: %v", name, err)
		}
	}
	printSnap(p.exact)
	r.check(plain.exact == p.exact, "%s replay: simulated statistics differ between the untraced and traced runs:\n  %+v\n  %+v",
		name, plain.exact, p.exact)
	simMetrics(k, p, nextNs, r)
}

// simMetrics reports a simulator layer's metrics from a traced phase.
func simMetrics(k kind, p *simPhase, nextNs float64, r *report) {
	e := p.exact
	kacc := float64(e.refs) / 1000
	if k == cmpsimKind {
		r.add("cmpsim.self_ns_per_acc", "ns", p.selfNsPerRef(nextNs))
		r.add("cmpsim.l1_miss_ratio", "ratio", float64(e.misses)/float64(e.refs))
		r.add("cmpsim.invalidations_per_kacc", "count", float64(e.invalidations)/kacc)
		r.add("cmpsim.forced_per_kacc", "count", float64(e.forced)/kacc)
		r.add("cmpsim.occupancy", "ratio", e.occupancy)
		return
	}
	r.add("coherence.self_ns_per_acc", "ns", p.selfNsPerRef(nextNs))
	r.add("coherence.cycles", "cycles", float64(e.cycles))
	r.add("coherence.avg_miss_latency_cycles", "cycles", e.missLatency)
	r.add("coherence.mesh_flits", "flits", float64(e.meshBytes)/float64(coherence.DefaultConfig().Mesh.FlitBytes))
}
