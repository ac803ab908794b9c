package directory

import (
	"reflect"
	"testing"

	"cuckoodir/internal/core"
	"cuckoodir/internal/rng"
)

// pinStream returns n accesses from a seeded model of numCaches private
// caches, each allCacheSets sets of allCacheAssoc frames with FIFO
// replacement: a miss evicts the set's oldest block first, a write
// drops every other cache's copy, and a quarter of the draws evict the
// drawn block when the cache holds it. The stream never reads the
// directory, so every organization sees the same accesses, and it never
// overfills a duplicate-tag mirror of the same geometry.
func pinStream(seed uint64, numCaches, n int) []Access {
	r := rng.New(seed)
	const addrSpace = 1088 // 1/16 above the bounded slices' 1024 entries
	held := make([][][]uint64, numCaches)
	for c := range held {
		held[c] = make([][]uint64, allCacheSets)
	}
	has := func(c int, addr uint64) int {
		for i, a := range held[c][addr%allCacheSets] {
			if a == addr {
				return i
			}
		}
		return -1
	}
	drop := func(c int, addr uint64, i int) {
		set := held[c][addr%allCacheSets]
		held[c][addr%allCacheSets] = append(set[:i], set[i+1:]...)
	}
	out := make([]Access, 0, n)
	for len(out) < n {
		addr := uint64(r.Intn(addrSpace))
		c := r.Intn(numCaches)
		kind := AccessRead
		switch x := r.Intn(8); {
		case x < 2:
			kind = AccessEvict
		case x < 4:
			kind = AccessWrite
		}
		i := has(c, addr)
		if kind == AccessEvict {
			if i < 0 {
				continue
			}
			drop(c, addr, i)
			out = append(out, Access{Kind: AccessEvict, Addr: addr, Cache: c})
			continue
		}
		if i < 0 {
			set := held[c][addr%allCacheSets]
			if len(set) == allCacheAssoc {
				out = append(out, Access{Kind: AccessEvict, Addr: set[0], Cache: c})
				drop(c, set[0], 0)
			}
			held[c][addr%allCacheSets] = append(held[c][addr%allCacheSets], addr)
		}
		if kind == AccessWrite {
			for o := range held {
				if j := has(o, addr); o != c && j >= 0 {
					drop(o, addr, j)
				}
			}
		}
		out = append(out, Access{Kind: kind, Addr: addr, Cache: c})
	}
	return out[:n]
}

// pinned is every statistic a slice accounts for one stream.
type pinned struct {
	events        core.EventCounts
	attempts      []uint64 // attempt histogram buckets 0..Max
	forced        uint64
	forcedBlocks  uint64
	occSum        float64
	occSamples    uint64
	displacements uint64 // elbow only
}

func pinOf(d Directory) pinned {
	st := d.Stats()
	p := pinned{
		events:       st.Events,
		forced:       st.ForcedEvictions,
		forcedBlocks: st.ForcedBlocks,
		occSum:       st.OccupancySum,
		occSamples:   st.OccupancySamples,
	}
	for v := 0; v <= st.Attempts.Max(); v++ {
		p.attempts = append(p.attempts, st.Attempts.Bucket(v))
	}
	if sa, ok := d.(*setAssoc); ok {
		p.displacements = sa.Displacements
	}
	return p
}

// taglessDoubleCounted is the number of writes in the pin stream by a
// cache that did not hold the block while others did. Tagless once
// counted each as add-sharer AND invalidate-sharers; like every other
// organization it now counts invalidate-sharers only.
const taglessDoubleCounted = 10157

// TestEventCountsPinned drives one seeded 50k-access stream through each
// organization and compares every accounted statistic — the five event
// counts, the attempt histogram, forced evictions and blocks, the
// occupancy samples and Elbow's displacements — with the values recorded
// before the organizations shared one event-accounting rule. Only
// Tagless's add-sharer count differs, by taglessDoubleCounted.
func TestEventCountsPinned(t *testing.T) {
	want := []struct {
		name string
		pin  pinned
	}{
		{"ideal", pinned{
			events:   core.EventCounts{2205, 20805, 6318, 1144, 12985},
			attempts: []uint64{0, 2205},
			forced:   0, forcedBlocks: 0,
			occSum: 1712.2333984375, occSamples: 2205,
			displacements: 0,
		}},
		{"duplicate-tag", pinned{
			events:   core.EventCounts{2205, 20805, 6318, 1144, 12985},
			attempts: []uint64{0, 2205},
			forced:   0, forcedBlocks: 0,
			occSum: 428.058349609375, occSamples: 2205,
			displacements: 0,
		}},
		{"in-cache", pinned{
			events:   core.EventCounts{2205, 20805, 6318, 1144, 12985},
			attempts: []uint64{0, 2205},
			forced:   0, forcedBlocks: 0,
			occSum: 428.058349609375, occSamples: 2205,
			displacements: 0,
		}},
		{"sparse", pinned{
			events:   core.EventCounts{4316, 19958, 5475, 1103, 12285},
			attempts: []uint64{0, 4316},
			forced:   2206, forcedBlocks: 3932,
			occSum: 3716.3017578125, occSamples: 4316,
			displacements: 0,
		}},
		{"skewed", pinned{
			events:   core.EventCounts{4560, 19930, 5412, 1102, 12189},
			attempts: []uint64{0, 4560},
			forced:   2460, forcedBlocks: 4501,
			occSum: 3917.88671875, occSamples: 4560,
			displacements: 0,
		}},
		{"tagless", pinned{
			events:   core.EventCounts{2205, 30962 - taglessDoubleCounted, 6318, 1144, 12985},
			attempts: []uint64{0, 2205},
			forced:   0, forcedBlocks: 0,
			occSum: 53.44000244140625, occSamples: 2205,
			displacements: 0,
		}},
		{"cuckoo", pinned{
			events:   core.EventCounts{3763, 20236, 5745, 1147, 12443},
			attempts: []uint64{0, 1421, 34, 49, 39, 24, 41, 30, 29, 29, 33, 20, 26, 21, 13, 30, 30, 20, 26, 20, 22, 13, 17, 14, 23, 22, 23, 16, 22, 15, 10, 16, 1615},
			forced:   1601, forcedBlocks: 3217,
			occSum: 3209.84375, occSamples: 3763,
			displacements: 0,
		}},
		{"elbow", pinned{
			events:   core.EventCounts{4077, 20076, 5626, 1139, 12358},
			attempts: []uint64{0, 3618, 459},
			forced:   1929, forcedBlocks: 3644,
			occSum: 3497.935546875, occSamples: 4077,
			displacements: 459,
		}},
		{"cuckoo-full", pinned{
			events:   core.EventCounts{3763, 20236, 5745, 1147, 12443},
			attempts: []uint64{0, 1421, 34, 49, 39, 24, 41, 30, 29, 29, 33, 20, 26, 21, 13, 30, 30, 20, 26, 20, 22, 13, 17, 14, 23, 22, 23, 16, 22, 15, 10, 16, 1615},
			forced:   1601, forcedBlocks: 3217,
			occSum: 3209.84375, occSamples: 3763,
			displacements: 0,
		}},
	}
	stream := pinStream(2011, 8, 50_000)
	orgs := makeAll(8)
	if len(orgs) != len(want) {
		t.Fatalf("%d organizations, %d pins", len(orgs), len(want))
	}
	for i, d := range orgs {
		if d.Name() != want[i].name {
			t.Fatalf("organization %d is %s, pin is for %s", i, d.Name(), want[i].name)
		}
		for _, a := range stream {
			switch a.Kind {
			case AccessRead:
				d.Read(a.Addr, a.Cache)
			case AccessWrite:
				d.Write(a.Addr, a.Cache)
			case AccessEvict:
				d.Evict(a.Addr, a.Cache)
			}
		}
		if got := pinOf(d); !reflect.DeepEqual(got, want[i].pin) {
			t.Errorf("%s:\n got %+v\nwant %+v", d.Name(), got, want[i].pin)
		}
	}
}
