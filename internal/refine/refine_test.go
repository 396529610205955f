package refine

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/auxdata"
	"repro/internal/geom"
	"repro/internal/products"
	"repro/internal/strabon"
)

// testWorldStore loads a tiny hand-made world: one square island with an
// urban cell and a municipality.
func testWorldStore(t *testing.T) *strabon.Store {
	t.Helper()
	s := strabon.New()
	_, err := s.LoadTurtle(`
@prefix coast: <http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#> .
@prefix clc: <http://teleios.di.uoa.gr/ontologies/clcOntology.owl#> .
@prefix gag: <http://teleios.di.uoa.gr/ontologies/gagOntology.owl#> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .

coast:Coastline_1 a coast:Coastline ;
  strdf:hasGeometry "POLYGON ((22 37, 24 37, 24 39, 22 39, 22 37))"^^strdf:geometry .

clc:Area_urban a clc:Area ;
  clc:hasLandUse clc:ContinuousUrbanFabric ;
  strdf:hasGeometry "POLYGON ((23 38, 23.5 38, 23.5 38.5, 23 38.5, 23 38))"^^strdf:geometry .

clc:Area_forest a clc:Area ;
  clc:hasLandUse clc:ConiferousForest ;
  strdf:hasGeometry "POLYGON ((22 37, 23 37, 23 38, 22 38, 22 37))"^^strdf:geometry .

gag:mun1 a gag:Municipality ;
  strdf:hasGeometry "POLYGON ((22 37, 24 37, 24 39, 22 39, 22 37))"^^strdf:geometry .
`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func hotspotAt(lon, lat float64, at time.Time, id string) products.Hotspot {
	return products.Hotspot{
		ID:         id,
		Geometry:   geom.NewSquare(lon, lat, 0.04),
		Confidence: 1.0,
		AcquiredAt: at,
		Sensor:     "MSG1",
		Chain:      "sciql",
		Producer:   "noa",
	}
}

func TestRunAllOperationOrder(t *testing.T) {
	s := testWorldStore(t)
	r := NewRunner(s)
	at := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	p := &products.Product{
		Sensor: "MSG1", Chain: "sciql", AcquiredAt: at,
		Hotspots: []products.Hotspot{
			hotspotAt(22.5, 37.5, at, "forest"),
			hotspotAt(25.5, 35.5, at, "sea"),
			hotspotAt(23.2, 38.2, at, "urban"),
		},
	}
	timings, err := r.RunAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != len(AllOps) {
		t.Fatalf("%d timings", len(timings))
	}
	for i, tm := range timings {
		if tm.Op != AllOps[i] {
			t.Fatalf("op %d = %s, want %s", i, tm.Op, AllOps[i])
		}
		if tm.Duration <= 0 {
			t.Fatalf("op %s has no duration", tm.Op)
		}
	}
	// Only the forest hotspot must survive: sea deleted, urban deleted.
	res, err := r.CurrentHotspots(at)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d hotspots survive, want 1", len(res.Rows))
	}
}

func TestMunicipalityAssociation(t *testing.T) {
	s := testWorldStore(t)
	r := NewRunner(s)
	at := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	p := &products.Product{
		Sensor: "MSG1", Chain: "sciql", AcquiredAt: at,
		Hotspots: []products.Hotspot{hotspotAt(22.5, 37.5, at, "h1")},
	}
	if _, err := r.StoreProduct(p); err != nil {
		t.Fatal(err)
	}
	n, err := r.Municipalities(p)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("associations = %d", n)
	}
}

func TestRefineInCoastClipsGeometry(t *testing.T) {
	s := testWorldStore(t)
	r := NewRunner(s)
	at := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	// A hotspot square straddling the island's west edge at x=22.
	p := &products.Product{
		Sensor: "MSG1", Chain: "sciql", AcquiredAt: at,
		Hotspots: []products.Hotspot{hotspotAt(22.0, 38.0, at, "coastal")},
	}
	if _, err := r.StoreProduct(p); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RefineInCoast(p); err != nil {
		t.Fatal(err)
	}
	res, err := r.CurrentHotspots(at)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	g, err := geom.ParseWKT(res.Rows[0]["g"].Value)
	if err != nil {
		t.Fatal(err)
	}
	full := 0.04 * 0.04
	if a := geom.Area(g); a > full*0.6 || a < full*0.4 {
		t.Fatalf("clipped area = %g, want about half of %g", a, full)
	}
}

func TestTimePersistenceConfirmsAndReinstates(t *testing.T) {
	s := testWorldStore(t)
	r := NewRunner(s)
	r.PersistenceMin = 3
	base := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	loc := [2]float64{22.5, 37.5}
	// Three prior sightings of the same pixel within the hour.
	for i := 0; i < 3; i++ {
		at := base.Add(time.Duration(i*5) * time.Minute)
		p := &products.Product{
			Sensor: "MSG1", Chain: "sciql", AcquiredAt: at,
			Hotspots: []products.Hotspot{hotspotAt(loc[0], loc[1], at, "p")},
		}
		if _, err := r.StoreProduct(p); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh acquisition WITHOUT the persistent hotspot: reinstatement.
	at := base.Add(20 * time.Minute)
	empty := &products.Product{Sensor: "MSG1", Chain: "sciql", AcquiredAt: at}
	if _, err := r.StoreProduct(empty); err != nil {
		t.Fatal(err)
	}
	n, err := r.TimePersistence(empty)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("persistence affected %d, want 1 reinstated hotspot", n)
	}
	res, err := r.CurrentHotspots(at)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("reinstated hotspots = %d", len(res.Rows))
	}
	// Fresh acquisition WITH the hotspot: confirmation path.
	at2 := base.Add(25 * time.Minute)
	h := hotspotAt(loc[0], loc[1], at2, "fresh")
	h.Confidence = 0.5
	h.Confirmation = false
	withHot := &products.Product{
		Sensor: "MSG1", Chain: "sciql", AcquiredAt: at2,
		Hotspots: []products.Hotspot{h},
	}
	if _, err := r.StoreProduct(withHot); err != nil {
		t.Fatal(err)
	}
	if _, err := r.TimePersistence(withHot); err != nil {
		t.Fatal(err)
	}
	res2, err := r.CurrentHotspots(at2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 {
		t.Fatalf("rows = %d", len(res2.Rows))
	}
	if conf, _ := res2.Rows[0]["conf"].Float(); conf != 1.0 {
		t.Fatalf("confidence = %g, want raised to 1.0", conf)
	}
}

func TestRefineAgainstGeneratedWorld(t *testing.T) {
	// Integration: the synthetic world's triples drive the full sequence.
	w := auxdata.Generate(42)
	s := strabon.New()
	s.LoadTriples(w.AllTriples())
	r := NewRunner(s)
	at := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)

	// One hotspot in deep sea, one on a forest point.
	fp, ok := w.RandomForestPoint(randSrc())
	if !ok {
		t.Skip("no forest point")
	}
	p := &products.Product{
		Sensor: "MSG1", Chain: "sciql", AcquiredAt: at,
		Hotspots: []products.Hotspot{
			hotspotAt(fp.X, fp.Y, at, "forest"),
			hotspotAt(25.9, 35.1, at, "deepsea"),
		},
	}
	if _, err := r.RunAll(p); err != nil {
		t.Fatal(err)
	}
	res, err := r.CurrentHotspots(at)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d hotspots survive, want only the forest one", len(res.Rows))
	}
}

func randSrc() *rand.Rand { return rand.New(rand.NewSource(9)) }

// TestScopedRuleReadsOnlyItsAcquisition pins that a scoped rule's cost
// follows the acquisition, not the archive: the Municipalities WHERE
// clause's opening scan hands on exactly the scoped acquisition's
// hotspots, with one acquisition stored and with 24. Once the archive
// holds several acquisitions that scan is a distinct-object scan of the
// timestamps, testing one filter per stored acquisition. Only hotspot
// triples are stored: a product's noa:Shapefile individual carries the
// acquisition timestamp too.
func TestScopedRuleReadsOnlyItsAcquisition(t *testing.T) {
	base := time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)
	rowsOut := regexp.MustCompile(`actual rows=(\d+) `)
	objects := regexp.MustCompile(`objects=(\d+) passed=(\d+)\)`)
	for _, stored := range []int{1, 24} {
		t.Run(fmt.Sprint(stored), func(t *testing.T) {
			s := testWorldStore(t)
			var last products.Product
			for k := 0; k < stored; k++ {
				at := base.Add(time.Duration(k) * 15 * time.Minute)
				last = products.Product{Sensor: "MSG1", Chain: "sciql", AcquiredAt: at}
				for i := 0; i < 3+k%4; i++ {
					last.Hotspots = append(last.Hotspots,
						hotspotAt(22.1+0.1*float64(i), 37.5, at, fmt.Sprintf("a%d_%d", k, i)))
				}
				for _, h := range last.Hotspots {
					s.LoadTriples(h.Triples())
				}
			}
			out, err := s.ExplainAnalyze(context.Background(), fmt.Sprintf(`
SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hGeo .
  ?m a gag:Municipality ;
     strdf:hasGeometry ?mGeo .
  %s
  FILTER( strdf:anyInteract(?hGeo, ?mGeo) )
}`, scopeEq(last.AcquiredAt)))
			if err != nil {
				t.Fatal(err)
			}
			opening := strings.SplitN(out, "\n", 3)[1]
			m := rowsOut.FindStringSubmatch(opening)
			if m == nil {
				t.Fatalf("no actuals on the opening scan:\n%s", out)
			}
			if want := fmt.Sprint(len(last.Hotspots)); m[1] != want {
				t.Fatalf("opening scan emits %s rows, want the acquisition's %s hotspots:\n%s", m[1], want, out)
			}
			if stored == 1 {
				return
			}
			o := objects.FindStringSubmatch(opening)
			if !strings.Contains(opening, "join[objects]") || o == nil {
				t.Fatalf("plan does not open with an analysed distinct-object scan:\n%s", out)
			}
			if o[1] != fmt.Sprint(stored) || o[2] != "1" {
				t.Fatalf("objects tested/passed = %s/%s, want %d/1:\n%s", o[1], o[2], stored, out)
			}
		})
	}
}
