package shard

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/auxdata"
	"repro/internal/geom"
	"repro/internal/ontology"
	"repro/internal/products"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// The fan-out soundness suite: the planner joins a pattern like
// ?h ?hProperty ?hObject after the rest of its group when nothing else
// in the group reads its fresh variables. Every Figure 8 WHERE clause is
// written with that pattern in every textual position — inside the
// hotspot's subject block, where the planner defers it, and as a
// statement of its own, where it does not — and every variant must
// answer the same rows on a single store and on 1, 2 and 4 slices.

// fanoutWorld is the synthetic geography plus three acquisitions of the
// same twenty hotspot locations: on forest and farmland, straddling the
// coast, and out at sea.
func fanoutWorld() (load func(strabon.API)) {
	w := auxdata.Generate(42)
	r := rand.New(rand.NewSource(7))
	var sites []geom.Point
	for i := 0; i < 5; i++ {
		for _, sample := range []func(*rand.Rand) (geom.Point, bool){w.RandomForestPoint, w.RandomAgriculturalPoint, w.CoastPoint} {
			if p, ok := sample(r); ok {
				sites = append(sites, p)
			}
		}
		sites = append(sites, geom.Point{X: 25.5 - 0.1*float64(i), Y: 39.5})
	}
	var prods []products.Product
	for k := 0; k < 3; k++ {
		at := fanoutDay.Add(time.Duration(k) * 15 * time.Minute)
		p := products.Product{Sensor: "MSG1", Chain: "test", AcquiredAt: at}
		for i, site := range sites {
			p.Hotspots = append(p.Hotspots, products.Hotspot{
				ID:         fmt.Sprintf("fan%d_%d", k, i),
				Geometry:   geom.NewSquare(site.X, site.Y, 0.04),
				Confidence: 0.5 + 0.5*float64(i%2),
				AcquiredAt: at, Sensor: "MSG1", Chain: "test", Producer: "noa",
			})
		}
		prods = append(prods, p)
	}
	return func(st strabon.API) {
		st.LoadTriples(w.AllTriples())
		for i := range prods {
			st.InsertAll(prods[i].Triples())
		}
	}
}

var fanoutDay = time.Date(2007, 8, 24, 12, 0, 0, 0, time.UTC)

const fanoutScope = `FILTER( str(?at) >= "2007-08-24T12:00:00" )
  FILTER( str(?at) <= "2007-08-24T12:30:00" )`

// fanoutRules are the Figure 8 WHERE clauses as SELECTs projecting the
// fan-out variables. {{H}} is the hotspot subject block; each {{S}} is a
// slot for a stand-alone statement.
var fanoutRules = []struct{ name, query string }{
	{"Municipalities", `
SELECT ?h ?m ?hProperty ?hObject WHERE {
  {{S}} {{H}} {{S}}
  ?m a gag:Municipality ;
     strdf:hasGeometry ?mGeo .
  {{S}}
  ` + fanoutScope + `
  FILTER( strdf:anyInteract(?hGeo, ?mGeo) )
  {{S}}
}`},
	{"DeleteInSea", `
SELECT ?h ?hProperty ?hObject WHERE {
  {{S}} {{H}} {{S}}
  ` + fanoutScope + `
  OPTIONAL {
    ?c a coast:Coastline ;
       strdf:hasGeometry ?cGeo .
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
  }
  {{S}}
  FILTER( !bound(?c) )
  {{S}}
}`},
	{"InvalidForFires", `
SELECT ?h ?a ?hProperty ?hObject WHERE {
  {{S}} {{H}} {{S}}
  ?a a clc:Area ;
     clc:hasLandUse ?use ;
     strdf:hasGeometry ?aGeo .
  {{S}}
  ` + fanoutScope + `
  FILTER( ?use = <` + ontology.ClassArable + `> || ?use = <` + ontology.ClassUrbanFabric + `> )
  FILTER( strdf:coveredBy(?hGeo, ?aGeo) )
  {{S}}
}`},
	{"RefineInCoast", `
SELECT ?h ?hGeo ?hProperty ?hObject ?dif WHERE {
  SELECT DISTINCT ?h ?hGeo ?hProperty ?hObject
    (strdf:intersection(?hGeo, strdf:union(?cGeo)) AS ?dif)
  WHERE {
    {{S}} {{H}} {{S}}
    ?c a coast:Coastline ;
       strdf:hasGeometry ?cGeo .
    {{S}}
    ` + fanoutScope + `
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
    {{S}}
  }
  GROUP BY ?h ?hGeo ?hProperty ?hObject
  HAVING strdf:overlap(?hGeo, strdf:union(?cGeo))
}`},
	{"TimePersistence", `
SELECT ?hGeo ?hProperty (COUNT(?h) AS ?n) WHERE {
  {{S}} {{H}} {{S}}
  ` + fanoutScope + `
  {{S}}
}
GROUP BY ?hGeo ?hProperty
HAVING (COUNT(?h) >= 2)`},
}

// hotspotBlock is the predicate-object list every rule's {{H}} expands
// to.
var hotspotBlock = []string{"a noa:Hotspot", "noa:hasAcquisitionDateTime ?at", "strdf:hasGeometry ?hGeo"}

const fanoutPair = "?hProperty ?hObject"

// fanoutVariants renders a rule with the fan-out pattern in every
// position: first each slot of the hotspot block (deferred), then each
// stand-alone statement slot (planned in place).
func fanoutVariants(query string) (inBlock, standalone []string) {
	block := hotspotBlock
	render := func(pairs []string, slot int) string {
		h := "?h " + strings.Join(pairs, " ;\n     ") + " ."
		parts := strings.Split(strings.Replace(query, "{{H}}", h, 1), "{{S}}")
		var b strings.Builder
		for i, part := range parts {
			if i > 0 && i == slot {
				b.WriteString("?h " + fanoutPair + " .")
			}
			b.WriteString(part)
		}
		return b.String()
	}
	for k := 0; k <= len(block); k++ {
		pairs := append(append(append([]string(nil), block[:k]...), fanoutPair), block[k:]...)
		inBlock = append(inBlock, render(pairs, -1))
	}
	for slot := 1; slot <= strings.Count(query, "{{S}}"); slot++ {
		standalone = append(standalone, render(block, slot))
	}
	return inBlock, standalone
}

func TestFanoutLastMatchesInPlace(t *testing.T) {
	load := fanoutWorld()
	single := strabon.New()
	load(single)
	names, stores := []string{"single"}, []strabon.API{single}
	for _, n := range []int{1, 2, 4} {
		sh := New(Config{Slices: n, Width: 10 * time.Minute, Epoch: fanoutDay})
		load(sh)
		names, stores = append(names, fmt.Sprintf("slices=%d", n)), append(stores, sh)
	}

	for _, rule := range fanoutRules {
		t.Run(rule.name, func(t *testing.T) {
			inBlock, standalone := fanoutVariants(rule.query)
			for _, q := range inBlock {
				plan, err := single.Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				if joins := planJoins(plan); !strings.Contains(joins[len(joins)-1], fanoutPair+"}") {
					t.Fatalf("fan-out pattern not joined last:\n%s\nquery:%s", plan, q)
				}
			}
			var want *stsparql.Result
			for i, q := range append(inBlock, standalone...) {
				for si, st := range stores {
					got, err := strabon.MaterialiseQuery(t.Context(), st, q)
					if err != nil {
						t.Fatalf("%s variant %d: %v\nquery:%s", names[si], i, err, q)
					}
					if want == nil {
						if len(got.Rows) == 0 {
							t.Fatalf("reference variant answers no rows; the fixture does not exercise the rule")
						}
						want = got
						continue
					}
					assertEquivalent(t, fmt.Sprintf("%s variant %d", names[si], i), want, got, false)
				}
			}
		})
	}
}

// planJoins lists the join lines of an Explain rendering in plan order.
func planJoins(plan string) []string {
	var out []string
	for _, line := range strings.Split(plan, "\n") {
		if strings.Contains(line, "join[") {
			out = append(out, line)
		}
	}
	return out
}
