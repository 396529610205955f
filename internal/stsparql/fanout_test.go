package stsparql

import (
	"strings"
	"testing"
)

// TestFanoutLastCases pins which patterns the planner joins after the
// rest of their group. A pattern qualifies only when its predicate is a
// fresh variable, its subject is bound by another pattern of the same
// BGP, and nothing else in the group reads its fresh variables; every
// negative case breaks exactly one of those conditions. Each query is
// also evaluated, and a deferred plan must answer the same rows as the
// same query with the pattern in a statement of its own (never
// deferred).
func TestFanoutLastCases(t *testing.T) {
	cases := []struct {
		name     string
		where    string
		bound    []string // variables bound on entry to the group
		deferred bool
	}{
		{"fan-out pattern", `{
  ?h a noa:Hotspot ; noa:hasConfidence ?c ; ?p ?o .
  FILTER( ?c > 0.6 ) }`, nil, true},
		{"constant object", `{
  ?h a noa:Hotspot ; ?p noa:Hotspot . }`, nil, true},
		{"object bound on entry", `{
  ?h a noa:Hotspot ; ?p ?o . }`, []string{"o"}, true},
		{"after optional", `{
  ?h a noa:Hotspot ; ?p ?o .
  OPTIONAL { ?h noa:hasConfidence ?c } }`, nil, true},

		{"predicate read by a filter", `{
  ?h a noa:Hotspot ; ?p ?o .
  FILTER( ?p != rdf:type ) }`, nil, false},
		{"object read by a filter", `{
  ?h a noa:Hotspot ; ?p ?o .
  FILTER( isIRI(?o) ) }`, nil, false},
		{"predicate used inside an optional", `{
  ?h a noa:Hotspot ; ?p ?o .
  OPTIONAL { ?m a gag:Municipality ; ?p ?x } }`, nil, false},
		{"object used inside an optional", `{
  ?h a noa:Hotspot ; ?p ?o .
  OPTIONAL { ?o a noa:Hotspot } }`, nil, false},
		{"object used in another pattern", `{
  ?h a noa:Hotspot ; ?p ?o .
  ?o a noa:Hotspot . }`, nil, false},
		{"predicate used in another pattern", `{
  ?h a noa:Hotspot ; ?p ?o .
  ?m ?p ?x . }`, nil, false},
		{"object used in the same block", `{
  ?h a noa:Hotspot ; ?p ?o ; strdf:hasGeometry ?o . }`, nil, false},
		{"object used in a union", `{
  ?h a noa:Hotspot ; ?p ?o .
  { ?o a noa:Hotspot } UNION { ?o a gag:Municipality } }`, nil, false},
		{"object used in a sub-select", `{
  ?h a noa:Hotspot ; ?p ?o .
  { SELECT ?o WHERE { ?m a gag:Municipality ; ?q ?o } } }`, nil, false},
		{"subject bound only inside an optional", `{
  ?h ?p ?o .
  OPTIONAL { ?h a noa:Hotspot } }`, nil, false},
		{"subject bound only by other fan-out patterns", `{
  ?h ?p ?o ; ?q ?r . }`, nil, false},
		{"predicate bound on entry", `{
  ?h a noa:Hotspot ; ?p ?o . }`, []string{"p"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := mustParse(t, "SELECT * WHERE "+tc.where)
			bound := map[string]bool{}
			for _, v := range tc.bound {
				bound[v] = true
			}
			if got := fanoutLast(q.Select.Where, bound) != nil; got != tc.deferred {
				t.Fatalf("deferred = %v, want %v", got, tc.deferred)
			}
			if len(tc.bound) > 0 {
				return // entry bindings come from an enclosing group
			}
			// The same pattern as a statement of its own is planned in
			// place; both forms must answer the same rows.
			inPlace := strings.Replace(tc.where, "; ?p ", ". ?h ?p ", 1)
			if inPlace == tc.where {
				return
			}
			got := runSelectSrc(t, clcFixture(), "SELECT * WHERE "+tc.where)
			want := runSelectSrc(t, clcFixture(), "SELECT * WHERE "+inPlace)
			if g, w := renderResultGolden(got, false), renderResultGolden(want, false); g != w {
				t.Fatalf("deferred plan rows differ:\n%s\nin place:\n%s", g, w)
			}
		})
	}
}
