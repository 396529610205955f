// Package refine implements the semantic refinement step of Section
// 3.2.4: the sequence of stSPARQL updates that runs against Strabon after
// every acquisition's product is stored. The six operations are the ones
// timed in the paper's Figure 8: Store, Municipalities, Delete In Sea,
// Invalid For Fires, Refine In Coast, and Time Persistence.
package refine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/ontology"
	"repro/internal/products"
	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// Op names the refinement operations in execution order (the legend of
// Figure 8).
type Op string

// The Figure 8 operations.
const (
	OpStore           Op = "Store"
	OpMunicipalities  Op = "Municipalities"
	OpDeleteInSea     Op = "Delete In Sea"
	OpInvalidForFires Op = "Invalid For Fires"
	OpRefineInCoast   Op = "Refine In Coast"
	OpTimePersistence Op = "Time Persistence"
)

// AllOps lists the operations in execution order.
var AllOps = []Op{
	OpStore, OpMunicipalities, OpDeleteInSea,
	OpInvalidForFires, OpRefineInCoast, OpTimePersistence,
}

// Timing records one operation's response time at one acquisition — one
// point of Figure 8.
type Timing struct {
	Op       Op
	At       time.Time
	Duration time.Duration
	// Affected counts matched solutions / changed triples, whichever is
	// more informative for the op.
	Affected int
}

// Runner executes the refinement sequence against a Strabon store —
// the single strabon.Store or the sharded store, through strabon.API.
type Runner struct {
	Store strabon.API
	// PersistenceWindow is the look-back of the Time Persistence
	// heuristic (the paper: "during the last hour(s)").
	PersistenceWindow time.Duration
	// PersistenceMin is how many sightings within the window confirm a
	// location.
	PersistenceMin int
}

// NewRunner returns a Runner with the paper's defaults.
func NewRunner(s strabon.API) *Runner {
	return &Runner{Store: s, PersistenceWindow: time.Hour, PersistenceMin: 2}
}

func xsdTime(t time.Time) string { return t.UTC().Format("2006-01-02T15:04:05") }

// RunAll stores a product and applies every refinement operation,
// returning the per-operation timings (one Figure 8 column).
func (r *Runner) RunAll(p *products.Product) ([]Timing, error) {
	out, err := r.runSteps(p, nil, []step{{OpStore, r.StoreProduct}})
	if err != nil {
		return out, err
	}
	out, err = r.RunScoped(p, out)
	if err != nil {
		return out, err
	}
	return r.RunHistorical(p, out)
}

type step struct {
	op Op
	fn func(*products.Product) (int, error)
}

func (r *Runner) runSteps(p *products.Product, out []Timing, steps []step) ([]Timing, error) {
	for _, s := range steps {
		start := time.Now()
		n, err := s.fn(p)
		if err != nil {
			return out, fmt.Errorf("refine: %s: %w", s.op, err)
		}
		out = append(out, Timing{Op: s.op, At: p.AcquiredAt, Duration: time.Since(start), Affected: n})
	}
	return out, nil
}

// RunScoped applies the acquisition-scoped refinement operations —
// Municipalities, Delete In Sea, Invalid For Fires, Refine In Coast —
// appending their timings to out. Every one of these updates filters on
// the product's own acquisition timestamp and reads otherwise static
// auxiliary data, so RunScoped calls for DIFFERENT acquisitions are
// mutually independent. The product's triples must already be stored.
func (r *Runner) RunScoped(p *products.Product, out []Timing) ([]Timing, error) {
	return r.runSteps(p, out, []step{
		{OpMunicipalities, r.Municipalities},
		{OpDeleteInSea, r.DeleteInSea},
		{OpInvalidForFires, r.InvalidForFires},
		{OpRefineInCoast, r.RefineInCoast},
	})
}

// RunScopedRange is the batch-rule-evaluation form of RunScoped: each
// scoped operation is evaluated ONCE over the whole acquisition range
// [from, to] instead of once per acquisition. Because every scoped
// operation acts hotspot-by-hotspot (scoping merely selects which
// hotspots), a range evaluation over a batch of acquisitions deletes,
// clips and annotates exactly the hotspots the per-acquisition runs
// would — while paying the evaluation's scan and join setup once per
// flush instead of once per acquisition. The pipeline writer calls this
// with the first and last timestamps of a flush; the range must cover no
// acquisitions outside the flush. Timings carry the whole batch's cost
// and the At of the range start.
func (r *Runner) RunScopedRange(from, to time.Time) ([]Timing, error) {
	var out []Timing
	scope := scopeRange(from, to)
	for _, s := range []struct {
		op Op
		fn func(string) (int, error)
	}{
		{OpMunicipalities, r.municipalitiesScope},
		{OpDeleteInSea, r.deleteInSeaScope},
		{OpInvalidForFires, r.invalidForFiresScope},
		{OpRefineInCoast, r.refineInCoastScope},
	} {
		start := time.Now()
		n, err := s.fn(scope)
		if err != nil {
			return out, fmt.Errorf("refine: %s: %w", s.op, err)
		}
		out = append(out, Timing{Op: s.op, At: from, Duration: time.Since(start), Affected: n})
	}
	return out, nil
}

// scopeEq renders the acquisition filter selecting exactly one
// acquisition's hotspots.
func scopeEq(at time.Time) string {
	return fmt.Sprintf(`FILTER( str(?at) = "%s" )`, xsdTime(at))
}

// scopeRange renders the filter selecting every acquisition in the
// inclusive range; the xsd:dateTime text format compares chronologically
// as strings.
func scopeRange(from, to time.Time) string {
	if from.Equal(to) {
		return scopeEq(from)
	}
	return fmt.Sprintf(`FILTER( str(?at) >= "%s" )
  FILTER( str(?at) <= "%s" )`, xsdTime(from), xsdTime(to))
}

// RunHistorical applies the operations that read other acquisitions'
// history — currently Time Persistence, whose sighting window spans the
// preceding hour. These must run in acquisition order, after every
// earlier acquisition has been fully refined; the pipeline serialises
// them on its writer goroutine.
func (r *Runner) RunHistorical(p *products.Product, out []Timing) ([]Timing, error) {
	return r.runSteps(p, out, []step{{OpTimePersistence, r.TimePersistence}})
}

// StoreProduct inserts the product's RDF-ization (the "Store" series).
func (r *Runner) StoreProduct(p *products.Product) (int, error) {
	return r.Store.LoadTriples(p.Triples()), nil
}

// Municipalities associates each fresh hotspot with the municipalities
// its pixel interacts with — the operation the paper singles out as the
// slowest ("labeled as Municipalities ... there are cases where it needs
// four seconds").
func (r *Runner) Municipalities(p *products.Product) (int, error) {
	return r.municipalitiesScope(scopeEq(p.AcquiredAt))
}

func (r *Runner) municipalitiesScope(scope string) (int, error) {
	st, err := r.Store.UpdateScoped(fmt.Sprintf(`
INSERT { ?h noa:isInMunicipality ?m }
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hGeo .
  ?m a gag:Municipality ;
     strdf:hasGeometry ?mGeo .
  %s
  FILTER( strdf:anyInteract(?hGeo, ?mGeo) )
}`, scope))
	return st.Inserted, err
}

// DeleteInSea removes fresh hotspots that touch no coastline polygon —
// the paper's first refinement update, scoped to the acquisition.
func (r *Runner) DeleteInSea(p *products.Product) (int, error) {
	return r.deleteInSeaScope(scopeEq(p.AcquiredAt))
}

func (r *Runner) deleteInSeaScope(scope string) (int, error) {
	st, err := r.Store.UpdateScoped(fmt.Sprintf(`
DELETE { ?h ?hProperty ?hObject }
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hGeo ;
     ?hProperty ?hObject .
  %s
  OPTIONAL {
    ?c a coast:Coastline ;
       strdf:hasGeometry ?cGeo .
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
  }
  FILTER( !bound(?c) )
}`, scope))
	return st.Deleted, err
}

// InvalidForFires removes fresh hotspots lying entirely on land-cover
// classes where forest fires are implausible (urban fabric, arable
// plains) — the paper's "hotspots located outside forested areas".
func (r *Runner) InvalidForFires(p *products.Product) (int, error) {
	return r.invalidForFiresScope(scopeEq(p.AcquiredAt))
}

func (r *Runner) invalidForFiresScope(scope string) (int, error) {
	st, err := r.Store.UpdateScoped(fmt.Sprintf(`
DELETE { ?h ?hProperty ?hObject }
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hGeo ;
     ?hProperty ?hObject .
  ?a a clc:Area ;
     clc:hasLandUse ?use ;
     strdf:hasGeometry ?aGeo .
  %s
  FILTER( ?use = <%s> || ?use = <%s> )
  FILTER( strdf:coveredBy(?hGeo, ?aGeo) )
}`, scope, ontology.ClassArable, ontology.ClassUrbanFabric))
	return st.Deleted, err
}

// RefineInCoast clips fresh hotspots that straddle the coastline to
// their land part — the paper's second refinement update.
func (r *Runner) RefineInCoast(p *products.Product) (int, error) {
	return r.refineInCoastScope(scopeEq(p.AcquiredAt))
}

func (r *Runner) refineInCoastScope(scope string) (int, error) {
	st, err := r.Store.UpdateScoped(fmt.Sprintf(`
DELETE { ?h strdf:hasGeometry ?hGeo }
INSERT { ?h strdf:hasGeometry ?dif }
WHERE {
  SELECT DISTINCT ?h ?hGeo
    (strdf:intersection(?hGeo, strdf:union(?cGeo)) AS ?dif)
  WHERE {
    ?h a noa:Hotspot ;
       noa:hasAcquisitionDateTime ?at ;
       strdf:hasGeometry ?hGeo .
    ?c a coast:Coastline ;
       strdf:hasGeometry ?cGeo .
    %s
    FILTER( strdf:anyInteract(?hGeo, ?cGeo) )
  }
  GROUP BY ?h ?hGeo
  HAVING strdf:overlap(?hGeo, strdf:union(?cGeo))
}`, scope))
	return st.Inserted, err
}

// TimePersistence implements the paper's persistence heuristic: "check
// the number of times a specific fire was detected over the same or near
// the same geographic location during the last hour(s) ... attributing a
// level of confidence to each detected pixel". Two effects:
//
//  1. Fresh hotspots whose location was sighted at least PersistenceMin
//     times within the window are confirmed (confidence raised to 1.0).
//  2. Persistent locations missing from the fresh product are
//     reinstated as virtual hotspots — this is what grows the refined
//     chain's hotspot count in Table 1 and cuts the omission error.
func (r *Runner) TimePersistence(p *products.Product) (int, error) {
	since := p.AcquiredAt.Add(-r.PersistenceWindow)
	affected := 0

	// Effect 1: confirm persistent fresh hotspots.
	for _, h := range p.Hotspots {
		n, err := r.sightings(h, since, p.AcquiredAt)
		if err != nil {
			return affected, err
		}
		if n >= r.PersistenceMin {
			uri := products.HotspotURI(h)
			st, err := r.Store.Update(fmt.Sprintf(`
DELETE { <%[1]s> noa:hasConfidence ?c . <%[1]s> noa:hasConfirmation ?cf }
INSERT { <%[1]s> noa:hasConfidence 1.0 . <%[1]s> noa:hasConfirmation noa:confirmed }
WHERE  { <%[1]s> noa:hasConfidence ?c ; noa:hasConfirmation ?cf . }`, uri))
			if err != nil {
				return affected, err
			}
			affected += st.Inserted / 2
		}
	}

	// Effect 2: reinstate persistent locations absent from this product.
	res, err := strabon.MaterialiseQuery(context.Background(), r.Store, fmt.Sprintf(`
SELECT DISTINCT ?hGeo (COUNT(?h) AS ?n)
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?hGeo .
  FILTER( str(?at) >= "%s" )
  FILTER( str(?at) < "%s" )
}
GROUP BY ?hGeo
HAVING (COUNT(?h) >= %d)`, xsdTime(since), xsdTime(p.AcquiredAt), r.PersistenceMin))
	if err != nil {
		return affected, err
	}
	fresh := make(map[string]bool, len(p.Hotspots))
	for _, h := range p.Hotspots {
		fresh[geomKey(rdf.NewGeometry(wktOf(h)))] = true
	}
	// Every reinstated hotspot goes into one INSERT DATA: one parse, one
	// write lock and one generation bump per acquisition.
	var ins strings.Builder
	virt := 0
	for _, row := range res.Rows {
		g := row["hGeo"]
		if fresh[geomKey(g)] {
			continue
		}
		virt++
		uri := fmt.Sprintf("%sHotspot_%s_%s_persist%d", ontology.NOA,
			p.Sensor, p.AcquiredAt.UTC().Format("20060102T150405"), virt)
		fmt.Fprintf(&ins, `
  <%s> a noa:Hotspot ;
    noa:hasAcquisitionDateTime "%s"^^xsd:dateTime ;
    noa:hasConfidence 0.5 ;
    noa:hasConfirmation noa:unconfirmed ;
    strdf:hasGeometry %s ;
    noa:isDerivedFromSensor "%s"^^xsd:string ;
    noa:isProducedBy noa:noa ;
    noa:isFromProcessingChain "time-persistence"^^xsd:string .`, uri, xsdTime(p.AcquiredAt), g.String(), p.Sensor)
	}
	if virt == 0 {
		return affected, nil
	}
	if _, err := r.Store.Update("INSERT DATA {" + ins.String() + "\n}"); err != nil {
		return affected, err
	}
	return affected + virt, nil
}

// sightings counts prior hotspots interacting with h's pixel within the
// window.
func (r *Runner) sightings(h products.Hotspot, since, until time.Time) (int, error) {
	res, err := strabon.MaterialiseQuery(context.Background(), r.Store, fmt.Sprintf(`
SELECT ?h WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     strdf:hasGeometry ?g .
  FILTER( str(?at) >= "%s" )
  FILTER( str(?at) < "%s" )
  FILTER( strdf:anyInteract(?g, "%s"^^strdf:WKT) )
}`, xsdTime(since), xsdTime(until), wktOf(h)))
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

func wktOf(h products.Hotspot) string {
	return geom.WKT(h.Geometry)
}

// geomKey normalises a geometry term for set membership.
func geomKey(t rdf.Term) string { return t.Value }

// CurrentHotspots lists the hotspot URIs and geometries present in the
// store for one acquisition (post-refinement product extraction).
func (r *Runner) CurrentHotspots(at time.Time) (*stsparql.Result, error) {
	return strabon.MaterialiseQuery(context.Background(), r.Store, fmt.Sprintf(`
SELECT ?h ?g ?conf WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?at ;
     noa:hasConfidence ?conf ;
     strdf:hasGeometry ?g .
  FILTER( str(?at) = "%s" )
}`, xsdTime(at)))
}
