package closedloop

import (
	"testing"
	"time"

	"repro/internal/strabon"
)

// TestExplainWindowJoinGolden pins the plan of the served window join,
// the dominant thematic query: it stays hotspot-driven — a
// distinct-object scan applies the acquisition-window filters once per
// timestamp before any geometry is touched — and each hotspot's R-tree
// window candidates meet the gag:Municipality type join before the
// exact anyInteract test.
func TestExplainWindowJoinGolden(t *testing.T) {
	st := strabon.New()
	Seed(st, 4)
	d := Day()
	got, err := st.Explain(windowJoin(d, d.Add(59*time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	want := `select
  join[objects] {?h <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#hasAcquisitionDateTime> ?at} filter (str(?at) >= "2007-08-25T00:00:00") && (str(?at) <= "2007-08-25T00:59:00") est=7
  join[bind] {?h <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#Hotspot>} on h est=5.8
  join[bind] {?h <http://strdf.di.uoa.gr/ontology#hasGeometry> ?hg} on h est=5.8
  join[window] {?m <http://strdf.di.uoa.gr/ontology#hasGeometry> ?mg} est=5.8
  join[bind] {?m <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://teleios.di.uoa.gr/ontologies/gagOntology.owl#Municipality>} on m est=0.36
  filter[pushed] strdf:anyinteract(?hg, ?mg)
  project ?h ?m
`
	if got != want {
		t.Fatalf("explain mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
