package core

import (
	"fmt"
	"math/bits"

	"cuckoodir/internal/stats"
)

// Event is one of the five directory event classes of the paper's energy
// methodology (§5.6 footnote: insert 23.5%, add sharer 26.9%, remove
// sharer 24.9%, remove tag 23.5%, invalidate all sharers 1.2%).
type Event uint8

// The event classes, in the order the event-mix table prints them.
const (
	EvInsertTag Event = iota
	EvAddSharer
	EvRemoveSharer
	EvRemoveTag
	EvInvalidate
	// NumEvents is the number of event classes.
	NumEvents
)

var eventNames = [NumEvents]string{
	EvInsertTag:    "insert-tag",
	EvAddSharer:    "add-sharer",
	EvRemoveSharer: "remove-sharer",
	EvRemoveTag:    "remove-tag",
	EvInvalidate:   "invalidate-sharers",
}

// String returns the event's name, as the event-mix table labels it.
func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// EventCounts counts directory events by class: counting one is an array
// increment, cheap enough for every directory access.
type EventCounts [NumEvents]uint64

// Get returns the count of event e.
func (c EventCounts) Get(e Event) uint64 { return c[e] }

// Total returns the count over all classes.
func (c EventCounts) Total() uint64 {
	var t uint64
	for _, n := range c {
		t += n
	}
	return t
}

// Fractions returns each class's share of the total (all zero when
// nothing was counted).
func (c EventCounts) Fractions() [NumEvents]float64 {
	var f [NumEvents]float64
	if t := c.Total(); t != 0 {
		for e, n := range c {
			f[e] = float64(n) / float64(t)
		}
	}
	return f
}

// DirConfig configures a Cuckoo directory slice.
type DirConfig struct {
	// Table is the underlying d-ary cuckoo table geometry.
	Table Config
	// NumCaches is the number of private caches tracked (<= 64; sharer
	// sets are held as bit masks in the functional model — the pluggable
	// compressed formats of internal/sharer govern storage cost, which the
	// energy model accounts separately).
	NumCaches int
}

// Forced describes a directory-initiated eviction: the directory could not
// track the entry any longer, so the listed sharer caches must invalidate
// the block.
type Forced struct {
	Addr    uint64
	Sharers uint64
}

// DirStats aggregates a directory slice's behaviour.
//
//cuckoo:stats merge=Merge
type DirStats struct {
	// Events counts the five directory event classes.
	Events EventCounts
	// Attempts is the per-insertion write-attempt histogram (1..cap),
	// the quantity of Figures 7, 9, 10 and 11.
	Attempts *stats.Histogram
	// ForcedEvictions counts entries the directory discarded on insertion
	// failure; ForcedBlocks counts the cache blocks invalidated as a
	// consequence.
	ForcedEvictions uint64
	ForcedBlocks    uint64
	// OccupancySum/OccupancySamples accumulate occupancy sampled at every
	// insertion, giving the average directory occupancy of Figure 8.
	OccupancySum     float64
	OccupancySamples uint64
}

// NewDirStats returns zeroed statistics sized for the given attempt cap.
func NewDirStats(maxAttempts int) *DirStats {
	return &DirStats{Attempts: stats.NewHistogram(maxAttempts)}
}

// MergeDirStats merges per-slice statistics into one fresh aggregate.
// The aggregate's attempt histogram starts minimal and grows to the
// widest input range (Histogram.Merge), so heterogeneous slices merge
// fine. Call with no arguments for an empty aggregate to Merge into
// incrementally (e.g. under per-slice locks).
func MergeDirStats(stats ...*DirStats) *DirStats {
	agg := NewDirStats(1)
	for _, st := range stats {
		agg.Merge(st)
	}
	return agg
}

// MeanOccupancy returns the average sampled occupancy.
func (s *DirStats) MeanOccupancy() float64 {
	if s.OccupancySamples == 0 {
		return 0
	}
	return s.OccupancySum / float64(s.OccupancySamples)
}

// InvalidationRate returns forced invalidation events as a fraction of
// directory entry insertions — the metric of Figure 12 ("we present the
// invalidation rate as a fraction of directory entry insertions").
func (s *DirStats) InvalidationRate() float64 {
	ins := s.Events.Get(EvInsertTag)
	if ins == 0 {
		return 0
	}
	return float64(s.ForcedEvictions) / float64(ins)
}

// Merge accumulates other into s (used to aggregate per-slice statistics).
func (s *DirStats) Merge(other *DirStats) {
	for e, n := range other.Events {
		s.Events[e] += n
	}
	s.Attempts.Merge(other.Attempts)
	s.ForcedEvictions += other.ForcedEvictions
	s.ForcedBlocks += other.ForcedBlocks
	s.OccupancySum += other.OccupancySum
	s.OccupancySamples += other.OccupancySamples
}

// The event rule for slices that keep each entry's sharers as a bit mask
// (one bit per cache). Directory here, and the set-associative, exact and
// Tagless slices of internal/directory, all account through these
// helpers, so the same access counts as the same event in every
// organization.

// ReadHit returns a tracked entry's mask after the cache with bit reads
// the block: a new sharer counts add-sharer, a present one nothing.
func (s *DirStats) ReadHit(mask, bit uint64) uint64 {
	if mask&bit == 0 {
		s.Events[EvAddSharer]++
	}
	return mask | bit
}

// WriteHit returns the caches a write by bit must invalidate in a tracked
// entry holding mask; the entry's new mask is bit alone. It counts
// invalidate-sharers when any other cache shares the block, else
// add-sharer when the writer was not yet a sharer.
func (s *DirStats) WriteHit(mask, bit uint64) (invalidate uint64) {
	invalidate = mask &^ bit
	if invalidate != 0 {
		s.Events[EvInvalidate]++
	} else if mask&bit == 0 {
		s.Events[EvAddSharer]++
	}
	return invalidate
}

// EvictHit returns a tracked entry's mask after the cache with bit, which
// must be a sharer, drops the block: remove-sharer, then remove-tag when
// the entry empties (the caller frees it on a zero result).
func (s *DirStats) EvictHit(mask, bit uint64) uint64 {
	s.Events[EvRemoveSharer]++
	mask &^= bit
	if mask == 0 {
		s.Events[EvRemoveTag]++
	}
	return mask
}

// RecordInsert records one entry allocation: insert-tag, its write
// attempts and, when the slice has a capacity, an occupancy sample of
// used/capacity taken after the allocation.
func (s *DirStats) RecordInsert(attempts, used, capacity int) {
	s.Events[EvInsertTag]++
	s.Attempts.Add(attempts)
	if capacity > 0 {
		s.OccupancySum += float64(used) / float64(capacity)
		s.OccupancySamples++
	}
}

// RecordForced records one entry the slice discarded to make room, and
// the cached copies of its sharers that must be invalidated.
func (s *DirStats) RecordForced(sharers uint64) {
	s.ForcedEvictions++
	s.ForcedBlocks += uint64(bits.OnesCount64(sharers))
}

// Directory is one slice of the distributed Cuckoo directory: a d-ary
// cuckoo table whose entries map a block address to the bit mask of caches
// sharing the block.
type Directory struct {
	t            *Table[uint64]
	numCaches    int
	stats        *DirStats
	lastAttempts int
}

// NewDirectory creates an empty Cuckoo directory slice.
func NewDirectory(cfg DirConfig) *Directory {
	if cfg.NumCaches <= 0 || cfg.NumCaches > 64 {
		panic(fmt.Sprintf("core: NumCaches = %d, need 1..64", cfg.NumCaches))
	}
	t := NewTable[uint64](cfg.Table)
	return &Directory{
		t:         t,
		numCaches: cfg.NumCaches,
		stats:     NewDirStats(t.Config().MaxAttempts),
	}
}

// NumCaches returns the number of caches this slice tracks.
func (d *Directory) NumCaches() int { return d.numCaches }

// Stats returns the slice's statistics (live; callers may read at any
// point).
func (d *Directory) Stats() *DirStats { return d.stats }

// ResetStats zeroes the statistics without touching directory contents —
// used to discard the warm-up phase, mirroring the paper's methodology of
// warming the micro-architectural state before measuring.
func (d *Directory) ResetStats() {
	d.stats = NewDirStats(d.t.Config().MaxAttempts)
}

// Len returns the number of tracked blocks.
func (d *Directory) Len() int { return d.t.Len() }

// Capacity returns the number of entry slots.
func (d *Directory) Capacity() int { return d.t.Capacity() }

// Occupancy returns the current occupancy fraction.
func (d *Directory) Occupancy() float64 { return d.t.Occupancy() }

// Lookup returns the sharer mask for addr.
func (d *Directory) Lookup(addr uint64) (sharers uint64, ok bool) {
	if p := d.t.Find(addr); p != nil {
		return *p, true
	}
	return 0, false
}

func (d *Directory) checkCache(cache int) {
	if cache < 0 || cache >= d.numCaches {
		panic(fmt.Sprintf("core: cache id %d out of range [0,%d)", cache, d.numCaches))
	}
}

// insert allocates a new entry for addr with the given sharer mask and
// updates statistics. It returns the forced eviction, if any.
func (d *Directory) insert(addr, mask uint64) *Forced {
	res := d.t.Insert(addr, mask)
	if res.Present {
		panic("core: insert of an existing tag — caller must look up first")
	}
	d.stats.RecordInsert(res.Attempts, d.t.Len(), d.t.Capacity())
	d.lastAttempts = res.Attempts
	if res.Evicted != nil {
		d.stats.RecordForced(res.Evicted.Val)
		return &Forced{Addr: res.Evicted.Key, Sharers: res.Evicted.Val}
	}
	return nil
}

// LastAttempts returns the insertion write count of the most recent Read
// or Write that allocated an entry (0 when the last operation allocated
// nothing). The timing model uses it to charge insertion occupancy.
func (d *Directory) LastAttempts() int { return d.lastAttempts }

// Read records a read (fill) of addr by cache: the cache becomes a sharer,
// allocating a directory entry if the block was untracked. The returned
// Forced is non-nil when the allocation displaced an entry out of the
// directory.
func (d *Directory) Read(addr uint64, cache int) *Forced {
	d.checkCache(cache)
	d.lastAttempts = 0
	bit := uint64(1) << uint(cache)
	if p := d.t.Find(addr); p != nil {
		*p = d.stats.ReadHit(*p, bit)
		return nil
	}
	return d.insert(addr, bit)
}

// Write records a write (exclusive fill or upgrade) of addr by cache. The
// returned invalidate mask lists the other caches that must invalidate
// their copies; forced is as for Read.
func (d *Directory) Write(addr uint64, cache int) (invalidate uint64, forced *Forced) {
	d.checkCache(cache)
	d.lastAttempts = 0
	bit := uint64(1) << uint(cache)
	if p := d.t.Find(addr); p != nil {
		inv := d.stats.WriteHit(*p, bit)
		*p = bit
		return inv, nil
	}
	return 0, d.insert(addr, bit)
}

// Evict records that cache no longer holds addr (clean or dirty eviction;
// the directory treats both alike, §5.2: "dirty and clean evictions from
// the private caches are tracked by the directory"). The entry is freed
// when its last sharer leaves. Unknown addresses are ignored: the block
// may have been forcibly evicted from the directory earlier.
func (d *Directory) Evict(addr uint64, cache int) {
	d.checkCache(cache)
	bit := uint64(1) << uint(cache)
	p := d.t.Find(addr)
	if p == nil || *p&bit == 0 {
		return
	}
	if *p = d.stats.EvictHit(*p, bit); *p == 0 {
		d.t.Delete(addr)
	}
}

// ForEach iterates over tracked (addr, sharer mask) pairs.
func (d *Directory) ForEach(fn func(addr, sharers uint64) bool) {
	d.t.ForEach(func(e Entry[uint64]) bool { return fn(e.Key, e.Val) })
}
