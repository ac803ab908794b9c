package directory

import (
	"math/bits"

	"cuckoodir/internal/core"
	"cuckoodir/internal/sharer"
)

// FormattedCuckoo is a Cuckoo directory whose entries hold a pluggable
// sharer-set representation from internal/sharer instead of a raw bit
// mask. It demonstrates the paper's §6 point that "the Cuckoo organization
// dictates only the organization of the directory itself, not the
// contents of each entry": the same d-ary table runs with full vectors,
// coarse vectors, limited pointers or hierarchical vectors.
//
// Compressed formats may OVER-approximate the sharer set after overflow,
// so Write can return invalidations for caches that no longer (or never)
// held the block; SpuriousInvalidations counts them — the traffic price of
// the format, measured by the "formats" experiment. Entries with inexact
// contents also survive longer (a coarse entry only empties on
// invalidate-all), which the experiment reports as occupancy overhead.
type FormattedCuckoo struct {
	t         *core.Table[sharer.Set]
	format    sharer.Format
	numCaches int
	stats     *Stats
	// SpuriousInvalidations counts invalidation targets that were not
	// true sharers (format over-approximation).
	SpuriousInvalidations uint64
	shadow                map[uint64]uint64 // true holders, for accounting only
}

// NewFormattedCuckoo builds a Cuckoo directory slice using the given
// sharer-set format.
func NewFormattedCuckoo(cfg core.Config, format sharer.Format, numCaches int) *FormattedCuckoo {
	if numCaches <= 0 || numCaches > 64 {
		panic("directory: numCaches out of range")
	}
	t := core.NewTable[sharer.Set](cfg)
	return &FormattedCuckoo{
		t:         t,
		format:    format,
		numCaches: numCaches,
		stats:     core.NewDirStats(t.Config().MaxAttempts),
		shadow:    make(map[uint64]uint64),
	}
}

// Name implements Directory.
func (f *FormattedCuckoo) Name() string { return "cuckoo-" + f.format.Name }

// NumCaches implements Directory.
func (f *FormattedCuckoo) NumCaches() int { return f.numCaches }

// Capacity implements Directory.
func (f *FormattedCuckoo) Capacity() int { return f.t.Capacity() }

// Len implements Directory.
func (f *FormattedCuckoo) Len() int { return f.t.Len() }

// Stats implements Directory.
func (f *FormattedCuckoo) Stats() *Stats { return f.stats }

// ResetStats implements Directory.
func (f *FormattedCuckoo) ResetStats() {
	f.stats = core.NewDirStats(f.t.Config().MaxAttempts)
	f.SpuriousInvalidations = 0
}

// Lookup implements Directory, returning the format's (possibly
// over-approximated) sharer view as a mask.
func (f *FormattedCuckoo) Lookup(addr uint64) (uint64, bool) {
	p := f.t.Find(addr)
	if p == nil {
		return 0, false
	}
	return maskOf(*p), true
}

func maskOf(s sharer.Set) uint64 {
	var m uint64
	var buf [64]int
	for _, id := range s.Sharers(buf[:0]) {
		m |= 1 << uint(id)
	}
	return m
}

// ForEach implements Directory.
func (f *FormattedCuckoo) ForEach(fn func(addr, sharers uint64) bool) {
	f.t.ForEach(func(e core.Entry[sharer.Set]) bool {
		return fn(e.Key, maskOf(e.Val))
	})
}

// insert allocates an entry holding only cache.
func (f *FormattedCuckoo) insert(addr uint64, cache int) (op Op) {
	set := f.format.New(f.numCaches)
	set.Add(cache)
	res := f.t.Insert(addr, set)
	f.stats.RecordInsert(res.Attempts, f.t.Len(), f.t.Capacity())
	op.Attempts = res.Attempts
	if res.Evicted != nil {
		m := maskOf(res.Evicted.Val)
		f.stats.RecordForced(m)
		op.Forced = append(op.Forced, Forced{Addr: res.Evicted.Key, Sharers: m})
		delete(f.shadow, res.Evicted.Key)
	}
	return op
}

// Read implements Directory.
func (f *FormattedCuckoo) Read(addr uint64, cache int) Op {
	checkCache(cache, f.numCaches)
	if p := f.t.Find(addr); p != nil {
		if !(*p).Contains(cache) {
			f.stats.Events[core.EvAddSharer]++
		}
		(*p).Add(cache)
		f.shadow[addr] |= bit(cache)
		return Op{}
	}
	op := f.insert(addr, cache)
	if _, stillThere := f.Lookup(addr); stillThere {
		f.shadow[addr] = bit(cache)
	}
	return op
}

// Write implements Directory. Invalidations are computed from the FORMAT's
// view; targets that are not true holders are counted spurious.
func (f *FormattedCuckoo) Write(addr uint64, cache int) Op {
	checkCache(cache, f.numCaches)
	if p := f.t.Find(addr); p != nil {
		inv := f.stats.WriteHit(maskOf(*p), bit(cache))
		trueInv := f.shadow[addr] &^ bit(cache)
		f.SpuriousInvalidations += uint64(bits.OnesCount64(inv &^ trueInv))
		(*p).Clear()
		(*p).Add(cache)
		f.shadow[addr] = bit(cache)
		return Op{Invalidate: inv}
	}
	op := f.insert(addr, cache)
	if _, stillThere := f.Lookup(addr); stillThere {
		f.shadow[addr] = bit(cache)
	}
	return op
}

// Evict implements Directory. With an inexact format the entry may live on
// after its true last sharer leaves; it is reclaimed only when the format
// itself reports empty.
func (f *FormattedCuckoo) Evict(addr uint64, cache int) {
	checkCache(cache, f.numCaches)
	p := f.t.Find(addr)
	if p == nil {
		return
	}
	if !(*p).Contains(cache) {
		return
	}
	(*p).Remove(cache)
	f.stats.Events[core.EvRemoveSharer]++
	f.shadow[addr] &^= bit(cache)
	if (*p).Empty() {
		f.t.Delete(addr)
		delete(f.shadow, addr)
		f.stats.Events[core.EvRemoveTag]++
	}
}

// DeadEntries returns the number of entries whose true sharer set is empty
// but whose compressed representation keeps them alive — the residency
// cost of inexact formats.
func (f *FormattedCuckoo) DeadEntries() int {
	dead := 0
	f.t.ForEach(func(e core.Entry[sharer.Set]) bool {
		if f.shadow[e.Key] == 0 {
			dead++
		}
		return true
	})
	return dead
}

var _ Directory = (*FormattedCuckoo)(nil)
