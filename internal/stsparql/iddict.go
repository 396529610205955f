package stsparql

import (
	"encoding/binary"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// ID-native execution: batches carry fixed-width term IDs, not rdf.Term
// structs, and terms materialise late — at the cursor row views, ORDER
// BY comparators, aggregate evaluation and the shard fan-out boundary.
// The execDict is the per-evaluation codec behind that: it resolves the
// engine's uint64 IDs to terms and interns terms the evaluation computes
// itself (projection expressions, constants, sub-select solutions).
//
// Two modes:
//
//   - native: the source exposes its own append-only rdf.Dictionary
//     (IDSource — the single strabon store). Scans emit store IDs
//     directly from the index visitors, so the hot path never touches a
//     term; computed terms intern into an evaluation-local overflow
//     table whose IDs start above the 32-bit store range. encode is
//     canonical — store dictionary first — so within one evaluation ID
//     equality coincides exactly with term equality.
//   - local: the source is a composite (the sharded store's views span
//     member stores with unrelated dictionaries, so member IDs cannot
//     be compared). Every term the evaluation sees interns into the
//     overflow table instead; same term, same local ID, so joins,
//     DISTINCT and grouping stay sound, just without the zero-cost scan
//     emission of native mode.
//
// A termID is private to one evaluation except in native mode, where
// IDs below overflowBase are store IDs and therefore stable for the
// life of the store — which is what lets a cached plan's hash-join
// build side (built from pure scan output) be shared across
// evaluations in native mode only.

// termID is the engine's native value currency: a dictionary ID widened
// to 64 bits so evaluation-local overflow IDs can sit above the store
// range. 0 is the unbound sentinel, exactly as the zero Term was.
type termID uint64

// overflowBase is the first evaluation-local ID: store IDs are 32-bit,
// so anything at or above this never collides with a scan emission.
const overflowBase termID = 1 << 32

// IDSource is an optional Source extension: a store whose triples are
// dictionary-encoded can let the engine scan and join on its IDs
// directly. Implementations must guarantee the rdf.Dictionary
// append-only contract (IDs stable and dense, Decode lock-free for
// readers holding the store's read lock).
type IDSource interface {
	Source
	// Dict exposes the source's term dictionary.
	Dict() *rdf.Dictionary
	// MatchIDs streams encoded triples matching an encoded pattern;
	// rdf.Wildcard components match anything.
	MatchIDs(s, p, o rdf.ID, visit func(rdf.EncodedTriple) bool)
}

// ObjectIDSource extends an ID source with a scan of one predicate's
// distinct objects, which lets a group's opening scan test a filter
// that reads only the object once per distinct object instead of once
// per triple (join[objects], see patScan.runObjects). Like MatchIDs it
// runs under the caller's read lock.
type ObjectIDSource interface {
	IDSource
	// MatchObjectIDs streams the distinct object IDs of predicate p.
	MatchObjectIDs(p rdf.ID, visit func(rdf.ID) bool)
}

// SpatialIDSource extends a spatial source with an encoded window scan,
// so R-tree window joins can stay in ID space too.
type SpatialIDSource interface {
	SpatialSource
	// MatchGeometryWindowIDs streams the encoded (subject,
	// hasGeometry-pred, geometry) triples whose envelope intersects env.
	MatchGeometryWindowIDs(env geom.Envelope, visit func(rdf.EncodedTriple) bool)
}

// execDict is one evaluation's term codec. It is single-goroutine, like
// the Evaluator owning it.
type execDict struct {
	store *rdf.Dictionary     // non-nil in native mode
	over  []rdf.Term          // overflow terms; over[i] has ID overflowBase+i
	ids   map[rdf.Term]termID // term → overflow ID (terms are comparable)
}

func newExecDict(src Source) *execDict {
	if is, ok := src.(IDSource); ok {
		return &execDict{store: is.Dict()}
	}
	return &execDict{}
}

// native reports whether IDs below overflowBase are store IDs — the
// precondition for sharing ID-keyed operator state across evaluations.
func (d *execDict) native() bool { return d.store != nil }

// encode interns a term, canonicalising store-dictionary-first so equal
// terms always map to equal IDs within the evaluation.
func (d *execDict) encode(t rdf.Term) termID {
	if t.IsZero() {
		return 0
	}
	if d.store != nil {
		if id, ok := d.store.Lookup(t); ok {
			return termID(id)
		}
	}
	if id, ok := d.ids[t]; ok {
		return id
	}
	id := overflowBase + termID(len(d.over))
	d.over = append(d.over, t)
	if d.ids == nil {
		d.ids = make(map[rdf.Term]termID)
	}
	d.ids[t] = id
	return id
}

// decode returns the term for an ID; 0 decodes to the zero (unbound)
// term.
func (d *execDict) decode(id termID) rdf.Term {
	if id == 0 {
		return rdf.Term{}
	}
	if id < overflowBase {
		return d.store.Decode(rdf.ID(id))
	}
	return d.over[id-overflowBase]
}

// storeID resolves a term against the store dictionary only — the scan
// path's constant resolution. ok=false means no indexed triple can
// carry the term, so a pattern bound to it matches nothing.
func (d *execDict) storeID(t rdf.Term) (rdf.ID, bool) {
	if d.store == nil {
		return 0, false
	}
	id, ok := d.store.Lookup(t)
	return id, ok
}

// appendIDKey appends the fixed-width encoding of one ID to a composite
// key buffer — the ID-native replacement for appendTermKey in hash
// join, DISTINCT and grouping keys (8 bytes per variable, unbound = 0).
func appendIDKey(dst []byte, id termID) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(id))
}
