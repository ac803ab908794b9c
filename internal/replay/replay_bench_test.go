package replay

import (
	"bytes"
	"fmt"
	"testing"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/trace"
)

// BenchmarkReplay sweeps the engine's drainer count over an 8-shard
// organization — the acceptance benchmark for the parallel replay
// pipeline: it captures one trace up front and replays it at every
// drainer count, so the producer side is a cheap decode and the
// drainers are the measured bottleneck. Compare the acc/s column, or
// ns/op, across /drainers=N cases; a host with fewer cores than drainers
// flattens the sweep.
//
//	go test ./internal/replay -bench BenchmarkReplay -benchtime 2x
func BenchmarkReplay(b *testing.B) {
	prof := testProfile(b)
	const accesses = 400_000
	var buf bytes.Buffer
	if _, err := trace.Capture(&buf, prof, testCores, 11, accesses); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	const shards = 8
	for _, drainers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d/drainers=%d", shards, drainers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, err := directory.BuildSharded(directory.Spec{
					Org:       directory.OrgCuckoo,
					NumCaches: testCores,
					Geometry:  directory.Geometry{Ways: 4, Sets: 8192},
				}, shards)
				if err != nil {
					b.Fatal(err)
				}
				rd, err := trace.NewReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := ReplayTrace(d, rd, Options{BatchSize: 256, Engine: engine.Options{Drainers: drainers}})
				if err != nil {
					b.Fatal(err)
				}
				if res.Accesses != accesses {
					b.Fatalf("applied %d", res.Accesses)
				}
			}
			b.ReportMetric(float64(accesses*uint64(b.N))/b.Elapsed().Seconds(), "acc/s")
		})
	}
}

// BenchmarkReplayHome contrasts the two home functions at the default
// drainer count (shard imbalance shows up as lost parallelism).
func BenchmarkReplayHome(b *testing.B) {
	prof := testProfile(b)
	const accesses = 400_000
	for _, home := range []directory.Home{directory.HomeMix, directory.HomeInterleave} {
		b.Run("home="+home.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, err := directory.Build(directory.Spec{
					Org:       directory.OrgCuckoo,
					NumCaches: testCores,
					Geometry:  directory.Geometry{Ways: 4, Sets: 8192},
					Shard:     directory.ShardSpec{Count: 8, Home: home},
				})
				if err != nil {
					b.Fatal(err)
				}
				src := Synthesize(prof, testCores, 11, accesses)
				b.StartTimer()
				if _, err := Run(d.(*directory.ShardedDirectory), src, Options{BatchSize: 256}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
