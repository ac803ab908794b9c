package main

import (
	"math/bits"
	"time"

	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/hashfn"
	"cuckoodir/internal/workload"
)

// The layer replays feed one layer's public functions directly with the
// workload's own stream at that layer's boundary. Each times runs of
// calls (never a single sub-microsecond call), so the clock's cost
// stays out, and records one span per timed run. Replays of fixed-size
// runs report the median run's cost per call; those whose runs vary in
// size (core, sharded) report total time over total calls.

// replayRun is the calls per timed run of the hashfn and workload
// replays.
const replayRun = 4096

// replayHashfn times Indexer.IndexAll over the addresses of accs, with
// the indexer a slice of geometry g resolves.
func replayHashfn(g geom, accs []directory.Access, d time.Duration, rec *recorder) float64 {
	sets := uint64(g.sets)
	ix := hashfn.NewIndexer(hashfn.NewSkew(bits.TrailingZeros64(sets)), g.ways, sets-1)
	var dst [hashfn.MaxWays]uint64
	var sink uint64
	var perKey []float64
	start := time.Now()
	for pos := 0; len(perKey) == 0 || time.Since(start) < d; pos = (pos + replayRun) % len(accs) {
		run := accs[pos:min(pos+replayRun, len(accs))]
		t0 := time.Now()
		for _, a := range run {
			ix.IndexAll(a.Addr, &dst)
			sink ^= dst[0]
		}
		t1 := time.Now()
		rec.add("replay.hashfn.index_all", rec.next(), 0, stamp(t0), stamp(t1), 0)
		perKey = append(perKey, float64(t1.Sub(t0))/float64(len(run)))
	}
	hashSink = sink
	return median(perKey)
}

// hashSink keeps the replayed index computations live.
var hashSink uint64

// coreResult is the outcome of a core.Table replay.
type coreResult struct {
	findNs, insertNs  float64
	finds, inserts    uint64
	attempts, evicted uint64
}

// replayCore feeds a standalone core.Table of geometry g with one
// shard's event stream: each chunk of 256 events runs Find on every
// read or write, then Insert on the misses (two timed runs), then
// Delete on evicted addresses (untimed; the table keeps no sharer
// state). Passes start from an empty table and repeat until d has
// elapsed; costs are totals over all passes.
func replayCore(g geom, events []directory.Access, d time.Duration, rec *recorder) coreResult {
	const chunk = 256
	var res coreResult
	var findNs, insertNs float64
	miss := make([]uint64, 0, chunk)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		t := core.NewTable[uint64](core.Config{Ways: g.ways, SetsPerWay: g.sets})
		for lo := 0; lo < len(events); lo += chunk {
			run := events[lo:min(lo+chunk, len(events))]
			miss = miss[:0]
			t0 := time.Now()
			n := 0
			for _, a := range run {
				if a.Kind != directory.AccessEvict {
					n++
					if t.Find(a.Addr) == nil {
						miss = append(miss, a.Addr)
					}
				}
			}
			t1 := time.Now()
			for _, addr := range miss {
				r := t.Insert(addr, 1)
				res.attempts += uint64(r.Attempts)
				if r.Evicted != nil {
					res.evicted++
				}
			}
			t2 := time.Now()
			for _, a := range run {
				if a.Kind == directory.AccessEvict {
					t.Delete(a.Addr)
				}
			}
			if n > 0 {
				rec.add("replay.core.find", rec.next(), 0, stamp(t0), stamp(t1), 0)
				findNs += float64(t1.Sub(t0))
				res.finds += uint64(n)
			}
			if len(miss) > 0 {
				rec.add("replay.core.insert", rec.next(), 0, stamp(t1), stamp(t2), 0)
				insertNs += float64(t2.Sub(t1))
				res.inserts += uint64(len(miss))
			}
		}
	}
	res.findNs = ratio(findNs, float64(res.finds))
	res.insertNs = ratio(insertNs, float64(res.inserts))
	return res
}

// replaySharded applies accs to dir directly through ApplyShardOps,
// one window of batchSize accesses per shard at a time: the window is
// partitioned by home shard (untimed), then its per-shard calls are
// timed as one run. Windows cycle over accs until d has elapsed. It
// returns the mean cost per access and the shard imbalance (busiest
// shard's accesses over the mean).
func replaySharded(dir *directory.ShardedDirectory, accs []directory.Access, d time.Duration, rec *recorder) (nsPerAcc, imbalance float64) {
	n := dir.ShardCount()
	window := batchSize * n
	parts := make([][]directory.Access, n)
	perShard := make([]uint64, n)
	ops := make([]directory.Op, window)
	var total float64
	var applied uint64
	start := time.Now()
	for pos := 0; applied == 0 || time.Since(start) < d; pos = (pos + window) % len(accs) {
		for h := range parts {
			parts[h] = parts[h][:0]
		}
		for _, a := range accs[pos:min(pos+window, len(accs))] {
			h := dir.ShardOf(a.Addr)
			parts[h] = append(parts[h], a)
		}
		t0 := time.Now()
		for h, p := range parts {
			if len(p) > 0 {
				dir.ApplyShardOps(h, p, ops[:len(p)])
			}
		}
		t1 := time.Now()
		rec.add("replay.sharded.apply", rec.next(), 0, stamp(t0), stamp(t1), 0)
		total += float64(t1.Sub(t0))
		for h, p := range parts {
			perShard[h] += uint64(len(p))
			applied += uint64(len(p))
		}
	}
	busiest := uint64(0)
	for _, c := range perShard {
		busiest = max(busiest, c)
	}
	return total / float64(applied), float64(busiest) / (float64(applied) / float64(n))
}

// replayWorkload times Generator.Next over a standalone stream with the
// workload's profile, core count and seed, round-robin over cores.
func replayWorkload(profile string, cores int, seed uint64, d time.Duration, rec *recorder) float64 {
	prof := mustProfile(profile)
	gens := make([]*workload.Generator, cores)
	for c := range gens {
		gens[c] = workload.NewGenerator(prof, c, cores, seed)
	}
	var sink uint64
	var perNext []float64
	start := time.Now()
	for len(perNext) == 0 || time.Since(start) < d {
		t0 := time.Now()
		for i := 0; i < replayRun; i++ {
			sink ^= gens[i%cores].Next().Addr
		}
		t1 := time.Now()
		rec.add("replay.workload.next", rec.next(), 0, stamp(t0), stamp(t1), 0)
		perNext = append(perNext, float64(t1.Sub(t0))/replayRun)
	}
	hashSink ^= sink
	return median(perNext)
}

// evictSweep evicts every sharer of up to limit resident entries of
// dir through ApplyShardOps, so a workload whose own path issues no
// Evict still exercises and times the directory's eviction path on its
// own final state. It returns the evictions applied.
func evictSweep(dir *directory.ShardedDirectory, limit int) int {
	var accs []directory.Access
	dir.ForEach(func(addr, sharers uint64) bool {
		for m := sharers; m != 0; m &= m - 1 {
			accs = append(accs, directory.Access{Kind: directory.AccessEvict, Addr: addr, Cache: bits.TrailingZeros64(m)})
		}
		return len(accs) < limit
	})
	n := dir.ShardCount()
	parts := make([][]directory.Access, n)
	for _, a := range accs {
		h := dir.ShardOf(a.Addr)
		parts[h] = append(parts[h], a)
	}
	for h, p := range parts {
		for _, b := range batchesOf(p, batchSize) {
			dir.ApplyShardOps(h, b, nil)
		}
	}
	return len(accs)
}
