package exp

import (
	"fmt"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/replay"
	"cuckoodir/internal/stats"
	"cuckoodir/internal/workload"
)

// replayRow is one configuration of the replay-throughput sweep.
type replayRow struct {
	shards    int
	home      directory.Home
	producers int
}

// replayThroughputExp is the replay-throughput experiment: unlike every
// other id it measures THIS IMPLEMENTATION (the sharded front-end driven
// through the asynchronous engine), not a paper artifact — it exists so the
// sharded sweep lands in EXPERIMENTS.md tables the same way the paper
// artifacts do. Absolute acc/s is host-dependent; the comparisons that
// travel are the ratios between rows of one run.
func replayThroughputExp() Experiment {
	return Experiment{
		ID: "replay",
		Title: "Sharded replay throughput through the engine: shards x home function x producers " +
			"(implementation artifact)",
		Expect: "Sharding beats one slice; multi-producer submission scales past a single producer " +
			"on multi-core hosts (a 1-CPU host shows pipeline overlap only); interleave homing " +
			"shifts shard imbalance relative to the mixing hash.",
		Run: func(o Options) []*stats.Table {
			accesses := 120_000
			if o.Scale == Full {
				accesses = 2_000_000
			}
			const cores = 16
			prof, err := workload.ByName("oracle")
			if err != nil {
				panic(err)
			}
			inner := []namedSpec{{
				name: "cuckoo-4x4096",
				spec: directory.Spec{Org: directory.OrgCuckoo, Geometry: directory.Geometry{Ways: 4, Sets: 4096}},
			}}
			if over := orgOverrides(o, cores); over != nil {
				inner = over
			}
			rows := []replayRow{
				{shards: 1, home: directory.HomeMix, producers: 1},
				{shards: 8, home: directory.HomeMix, producers: 1},
				{shards: 8, home: directory.HomeMix, producers: 4},
				{shards: 8, home: directory.HomeInterleave, producers: 4},
			}
			t := stats.NewTable(
				fmt.Sprintf("Sharded replay throughput (workload oracle, %d accesses, %d cores; runs are sequential so rows don't contend)",
					accesses, cores),
				"Organization", "Shards", "Home", "Prod", "Drainers",
				"kacc/s", "Occupancy", "Imbalance", "Avg attempts")
			for _, ns := range inner {
				if ns.spec.Shard.Count > 0 {
					t.AddNote("%s: skipped — name the inner (unsharded) organization; the sweep applies its own shard counts", ns.name)
					continue
				}
				for _, row := range rows {
					spec := ns.spec
					spec.NumCaches = cores
					spec.Shard.Home = row.home
					dir, err := directory.BuildSharded(spec, row.shards)
					if err != nil {
						panic(fmt.Sprintf("exp: replay: %s: %v", ns.name, err))
					}
					srcs := make([]replay.Source, row.producers)
					for i := range srcs {
						srcs[i] = replay.Synthesize(prof, cores, o.Seed+13+uint64(i), accesses/row.producers)
					}
					res, err := replay.RunMulti(dir, srcs, replay.Options{})
					if err != nil {
						panic(fmt.Sprintf("exp: replay: %s: %v", ns.name, err))
					}
					t.AddRow(ns.name,
						fmt.Sprintf("%d", row.shards),
						row.home.String(),
						fmt.Sprintf("%d", res.Producers),
						fmt.Sprintf("%d", res.Drainers),
						fmt.Sprintf("%.0f", res.Throughput()/1e3),
						fmt.Sprintf("%.1f%%", res.Occupancy()*100),
						fmt.Sprintf("%.2fx", res.ShardImbalance()),
						fmt.Sprintf("%.2f", res.Stats.Attempts.Mean()))
				}
			}
			t.AddNote("replay feeds every record as a fill (no cache filtering) — the directory-side worst case; see DESIGN.md §6")
			t.AddNote("acc/s covers submission AND completion (the engine's Close drains before the clock stops)")
			return []*stats.Table{t}
		},
	}
}
