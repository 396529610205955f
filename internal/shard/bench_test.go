package shard

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/products"
	"repro/internal/strabon"
)

// BenchmarkShardedQueries compares single-store vs sharded read
// throughput on the paper's dominant workload shape — "hotspots in
// acquisition window X" joined against reference data — while a writer
// appends one acquisition to the live slice per completed query. On the sharded store
// the historical window prunes to one slice and never contends with the
// writer's shard-local lock; on the single store every query queues
// behind every write. Run with -cpu 1,4: like the pipeline bench, the
// spread only shows on multicore hosts (the CI/dev container is 1-CPU,
// where the variants converge).
func BenchmarkShardedQueries(b *testing.B) {
	benchProducts := func(hours int) []*products.Product {
		var out []*products.Product
		for i := 0; i < hours*4; i++ {
			at := day.Add(time.Duration(i) * 15 * time.Minute)
			p := &products.Product{Sensor: "MSG1", Chain: "bench", AcquiredAt: at}
			for j := 0; j < 6; j++ {
				p.Hotspots = append(p.Hotspots, products.Hotspot{
					ID:         fmt.Sprintf("b%d_%d", i, j),
					Geometry:   geom.NewSquare(float64((i+5*j)%19)+0.5, 5, 0.5),
					Confidence: 0.5 + 0.5*float64((i+j)%2),
					AcquiredAt: at, Sensor: "MSG1", Chain: "bench", Producer: "noa",
				})
			}
			out = append(out, p)
		}
		return out
	}
	load := func(st strabon.API) {
		st.LoadTriples(staticTriples())
		for _, p := range benchProducts(12) {
			st.InsertAll(p.Triples())
		}
	}
	// The window is the scenario's first hour: on the 4-slice store it
	// prunes to 1/4 shards, far from the live slice the writer hits.
	q := `SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
  FILTER( str(?at) >= "2007-08-25T00:00:00" )
  FILTER( str(?at) <= "2007-08-25T00:59:00" )
  FILTER( strdf:anyInteract(?hg, ?mg) )
}`

	for _, tc := range []struct {
		name string
		mk   func() strabon.API
	}{
		{"single", func() strabon.API { return strabon.New() }},
		{"sharded4", func() strabon.API {
			return New(Config{Slices: 4, Width: time.Hour, Epoch: day})
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			st := tc.mk()
			load(st)
			// The writer appends one product to the live slice per
			// completed query, so its share of allocs/op is fixed rather
			// than set by how many wall-clock-paced inserts land inside
			// the timer. The buffer lets queries run a bounded distance
			// ahead of the writer; the timed region ends only once the
			// writer has caught up.
			ticks := make(chan struct{}, 64)
			writerDone := make(chan struct{})
			go func() {
				defer close(writerDone)
				i := 0
				for range ticks {
					at := day.Add(13*time.Hour + time.Duration(i)*5*time.Minute)
					p := &products.Product{Sensor: "MSG1", Chain: "bench", AcquiredAt: at}
					p.Hotspots = append(p.Hotspots, products.Hotspot{
						ID: fmt.Sprintf("w%d", i), Geometry: geom.NewSquare(3, 5, 0.5),
						Confidence: 1.0, AcquiredAt: at, Sensor: "MSG1", Chain: "bench", Producer: "noa",
					})
					st.InsertAll(p.Triples())
					i++
				}
			}()
			rows := 0
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					res, err := st.Query(q)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) == 0 {
						b.Fatal("windowed query returned no rows")
					}
					rows = len(res.Rows)
					ticks <- struct{}{}
				}
			})
			close(ticks)
			<-writerDone
			b.StopTimer()
			b.ReportMetric(float64(rows), "rows/req")
		})
	}
}
