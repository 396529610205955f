package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// The distinct-object soundness suite: a group that opens on ?s <p> ?o
// under filters reading only ?o is planned as a distinct-object scan
// (join[objects]) over a single strabon store. Every query of the corpus
// must answer the same multiset as the plan without that scan — the same
// store behind a wrapper that hides the capability — and as the sharded
// store at 1, 2 and 4 slices.

// noObjects is a strabon store without the distinct-object capability:
// the field shadows the promoted MatchObjectIDs method, so the planner
// falls back to the plan it makes for sources that lack it.
type noObjects struct {
	*strabon.Store
	MatchObjectIDs struct{}
}

var _ stsparql.IDSource = noObjects{}
var _ stsparql.ObjectIDSource = (*strabon.Store)(nil)

const (
	exNS    = "http://example.org/"
	exVal   = exNS + "val"
	exTag   = exNS + "tag"
	objLex  = "2007-08-24T12:15:00"
	objTime = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#hasAcquisitionDateTime"
)

// objectsWorld is forty subjects spread over eight acquisitions, each
// with one or two ex:val objects drawn from literals of every shape —
// among them a typed dateTime, a plain literal and an IRI sharing one
// lexical form, numbers, language-tagged and xsd:string literals — plus
// an ex:tag and one self-loop.
func objectsWorld() []rdf.Triple {
	vals := []rdf.Term{
		rdf.NewDateTime(objLex),
		rdf.NewLiteral(objLex),
		rdf.NewIRI(objLex),
		rdf.NewInteger(3),
		rdf.NewInteger(6),
		rdf.NewFloat(2.5),
		rdf.NewLangLiteral("chat", "fr"),
		rdf.NewLangLiteral("chat", "en"),
		rdf.NewTypedLiteral("abc", rdf.XSDString),
		rdf.NewLiteral("xyz"),
		rdf.NewBlank("b1"),
	}
	var out []rdf.Triple
	for i := 0; i < 40; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%ss%d", exNS, i))
		at := fanoutDay.Add(time.Duration(i%8) * 15 * time.Minute)
		out = append(out,
			rdf.Triple{S: s, P: rdf.NewIRI(objTime), O: rdf.NewDateTime(at.Format("2006-01-02T15:04:05"))},
			rdf.Triple{S: s, P: rdf.NewIRI(exVal), O: vals[i%len(vals)]},
			rdf.Triple{S: s, P: rdf.NewIRI(exTag), O: rdf.NewLiteral(fmt.Sprintf("t%d", i%3))},
		)
		if i%4 == 0 {
			out = append(out, rdf.Triple{S: s, P: rdf.NewIRI(exVal), O: vals[(i/4)%len(vals)]})
		}
	}
	loop := rdf.NewIRI(exNS + "loop")
	return append(out, rdf.Triple{S: loop, P: rdf.NewIRI(exVal), O: loop})
}

// objectsCorpus pairs each query with whether the single store must
// open it with join[objects].
var objectsCorpus = []struct {
	name, query string
	objects     bool
}{
	{"str equality", `SELECT ?s ?o WHERE { ?s <` + exVal + `> ?o FILTER( str(?o) = "` + objLex + `" ) }`, true},
	{"str range", `SELECT ?s ?o WHERE { ?s <` + exVal + `> ?o FILTER( str(?o) >= "2007" ) FILTER( str(?o) < "2008" ) }`, true},
	{"numeric range errors on non-numbers", `SELECT ?s ?o WHERE { ?s <` + exVal + `> ?o FILTER( ?o >= 3 && ?o < 7 ) }`, true},
	{"arithmetic errors on non-numbers", `SELECT ?s ?o WHERE { ?s <` + exVal + `> ?o FILTER( ?o + 1 > 3 ) }`, true},
	{"regex", `SELECT ?s ?o WHERE { ?s <` + exVal + `> ?o FILTER( regex(?o, "ha") ) }`, true},
	{"lang", `SELECT ?s ?o WHERE { ?s <` + exVal + `> ?o FILTER( lang(?o) = "fr" ) }`, true},
	{"datatype", `SELECT ?s ?o WHERE { ?s <` + exVal + `> ?o FILTER( datatype(?o) = <` + rdf.XSDDateTime + `> ) }`, true},
	{"joined and filtered further", `SELECT ?s ?o ?t WHERE { ?s <` + exVal + `> ?o . ?s <` + exTag + `> ?t FILTER( str(?o) = "` + objLex + `" ) FILTER( ?t != "t1" ) }`, true},
	{"aggregate", `SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s <` + exVal + `> ?o FILTER( isLiteral(?o) ) } GROUP BY ?o`, true},
	{"acquisition window", `SELECT ?s ?at WHERE { ?s <` + objTime + `> ?at FILTER( str(?at) >= "2007-08-24T12:15:00" ) FILTER( str(?at) <= "2007-08-24T12:45:00" ) }`, true},
	{"subject is object", `SELECT ?x WHERE { ?x <` + exVal + `> ?x FILTER( isIRI(?x) ) }`, false},
	{"filter reads the subject", `SELECT ?s ?o WHERE { ?s <` + exVal + `> ?o FILTER( str(?o) != str(?s) ) }`, false},
}

func TestObjectsScanMatchesFallback(t *testing.T) {
	world := objectsWorld()
	single := strabon.New()
	single.LoadTriples(world)
	names, stores := []string{"single"}, []strabon.API{single}
	for _, n := range []int{1, 2, 4} {
		sh := New(Config{Slices: n, Width: 30 * time.Minute, Epoch: fanoutDay})
		sh.LoadTriples(world)
		names, stores = append(names, fmt.Sprintf("slices=%d", n)), append(stores, sh)
	}
	hidden := noObjects{Store: single}

	for _, tc := range objectsCorpus {
		t.Run(tc.name, func(t *testing.T) {
			q, err := stsparql.Parse(tc.query, nil)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := single.Explain(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Contains(plan, "join[objects]"); got != tc.objects {
				t.Fatalf("join[objects] chosen = %v, want %v:\n%s", got, tc.objects, plan)
			}
			ev := stsparql.NewEvaluator(hidden)
			if fallback, err := ev.Explain(q); err != nil || strings.Contains(fallback, "join[objects]") {
				t.Fatalf("hidden capability still planned (err %v):\n%s", err, fallback)
			}
			want, err := ev.Select(q.Select)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("reference answers no rows; the fixture does not exercise the query")
			}
			for i, st := range stores {
				got, err := strabon.MaterialiseQuery(t.Context(), st, tc.query)
				if err != nil {
					t.Fatalf("%s: %v", names[i], err)
				}
				assertEquivalent(t, names[i], want, got, false)
			}
		})
	}
}
