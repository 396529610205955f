package geom

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseWKT parses an OGC Well-Known Text string into a Geometry. The
// parser accepts the subset emitted by the paper's datasets: POINT,
// LINESTRING, POLYGON, MULTIPOINT, MULTILINESTRING, MULTIPOLYGON and
// GEOMETRYCOLLECTION, each optionally EMPTY. Collections may nest at
// most maxCollectionDepth levels deep. Parsing is linear in the input.
func ParseWKT(s string) (Geometry, error) {
	p := &wktParser{src: s}
	g, err := p.parseGeometry()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("geom: trailing input at offset %d in %q", p.pos, clip(s))
	}
	return g, nil
}

// MustParseWKT parses s and panics on error. Intended for tests and
// compiled-in constant geometries.
func MustParseWKT(s string) Geometry {
	g, err := ParseWKT(s)
	if err != nil {
		panic(err)
	}
	return g
}

func clip(s string) string {
	if len(s) > 48 {
		return s[:48] + "..."
	}
	return s
}

// maxCollectionDepth bounds GEOMETRYCOLLECTION nesting, the one
// recursive WKT construct, at the stSPARQL parser's nesting bound: WKT
// literals arrive inside untrusted queries, and each level costs a
// parser stack frame and a level of every later walk over the geometry.
const maxCollectionDepth = 128

type wktParser struct {
	src   string
	pos   int
	depth int // GEOMETRYCOLLECTION nesting (see maxCollectionDepth)
}

func (p *wktParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *wktParser) word() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			p.pos++
		} else {
			break
		}
	}
	return strings.ToUpper(p.src[start:p.pos])
}

func (p *wktParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return fmt.Errorf("geom: expected %q at offset %d in %q", string(c), p.pos, clip(p.src))
	}
	p.pos++
	return nil
}

func (p *wktParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *wktParser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	if start == p.pos {
		return 0, fmt.Errorf("geom: expected number at offset %d in %q", p.pos, clip(p.src))
	}
	v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("geom: bad number %q: %v", p.src[start:p.pos], err)
	}
	return v, nil
}

// isEmptyTag consumes the EMPTY keyword (any letter case) if present.
// It looks at the next five bytes only, so a long input costs nothing
// per geometry tag.
func (p *wktParser) isEmptyTag() bool {
	const kw = "EMPTY"
	p.skipSpace()
	if len(p.src)-p.pos >= len(kw) && strings.EqualFold(p.src[p.pos:p.pos+len(kw)], kw) {
		p.pos += len(kw)
		return true
	}
	return false
}

func (p *wktParser) parseGeometry() (Geometry, error) {
	tag := p.word()
	switch tag {
	case "POINT":
		if p.isEmptyTag() {
			return MultiPoint{}, nil
		}
		pts, err := p.coordList()
		if err != nil {
			return nil, err
		}
		if len(pts) != 1 {
			return nil, fmt.Errorf("geom: POINT wants 1 coordinate, got %d", len(pts))
		}
		return pts[0], nil
	case "LINESTRING":
		if p.isEmptyTag() {
			return LineString{}, nil
		}
		pts, err := p.coordList()
		if err != nil {
			return nil, err
		}
		if len(pts) < 2 {
			return nil, fmt.Errorf("geom: LINESTRING wants >=2 coordinates, got %d", len(pts))
		}
		return LineString(pts), nil
	case "POLYGON":
		if p.isEmptyTag() {
			return Polygon{}, nil
		}
		return p.polygonBody()
	case "MULTIPOINT":
		if p.isEmptyTag() {
			return MultiPoint{}, nil
		}
		return p.multiPointBody()
	case "MULTILINESTRING":
		if p.isEmptyTag() {
			return MultiLineString{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var out MultiLineString
		for {
			pts, err := p.coordList()
			if err != nil {
				return nil, err
			}
			out = append(out, LineString(pts))
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return out, nil
	case "MULTIPOLYGON":
		if p.isEmptyTag() {
			return MultiPolygon{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var out MultiPolygon
		for {
			poly, err := p.polygonBody()
			if err != nil {
				return nil, err
			}
			out = append(out, poly)
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return out, nil
	case "GEOMETRYCOLLECTION":
		if p.isEmptyTag() {
			return Collection{}, nil
		}
		if p.depth >= maxCollectionDepth {
			return nil, fmt.Errorf("geom: GEOMETRYCOLLECTION nested deeper than %d levels", maxCollectionDepth)
		}
		p.depth++
		defer func() { p.depth-- }()
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var out Collection
		for {
			g, err := p.parseGeometry()
			if err != nil {
				return nil, err
			}
			out = append(out, g)
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return out, nil
	default:
		return nil, fmt.Errorf("geom: unknown WKT tag %q in %q", tag, clip(p.src))
	}
}

// coordList parses "( x y, x y, ... )".
func (p *wktParser) coordList() ([]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var pts []Point
	for {
		x, err := p.number()
		if err != nil {
			return nil, err
		}
		// Some shapefile-to-RDF exporters in the paper's datasets emit
		// "x,y" pairs; accept an optional comma between X and Y.
		if p.peek() == ',' {
			p.pos++
		}
		y, err := p.number()
		if err != nil {
			return nil, err
		}
		pts = append(pts, Point{x, y})
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return pts, nil
}

func (p *wktParser) polygonBody() (Polygon, error) {
	if err := p.expect('('); err != nil {
		return Polygon{}, err
	}
	var rings []Ring
	for {
		pts, err := p.coordList()
		if err != nil {
			return Polygon{}, err
		}
		r := Ring(pts)
		if !r.Valid() {
			// Tolerate unclosed rings from sloppy exporters by closing them.
			if len(r) >= 3 && !r[0].Equals(r[len(r)-1]) {
				r = append(r, r[0])
			}
			if !r.Valid() {
				return Polygon{}, fmt.Errorf("geom: polygon ring with %d points is not a valid ring", len(pts))
			}
		}
		rings = append(rings, r)
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return Polygon{}, err
	}
	poly := Polygon{Shell: rings[0], Holes: rings[1:]}
	return poly.Normalized(), nil
}

// multiPointBody accepts both "((1 2),(3 4))" and "(1 2, 3 4)" forms.
func (p *wktParser) multiPointBody() (Geometry, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var out MultiPoint
	for {
		if p.peek() == '(' {
			pts, err := p.coordList()
			if err != nil {
				return nil, err
			}
			if len(pts) != 1 {
				return nil, fmt.Errorf("geom: MULTIPOINT member wants 1 coordinate, got %d", len(pts))
			}
			out = append(out, pts[0])
		} else {
			x, err := p.number()
			if err != nil {
				return nil, err
			}
			y, err := p.number()
			if err != nil {
				return nil, err
			}
			out = append(out, Point{x, y})
		}
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return out, nil
}

// WKT serialises a geometry to Well-Known Text.
func WKT(g Geometry) string {
	var b strings.Builder
	writeWKT(&b, g)
	return b.String()
}

func writeWKT(b *strings.Builder, g Geometry) {
	switch v := g.(type) {
	case Point:
		b.WriteString("POINT (")
		writeCoord(b, v)
		b.WriteByte(')')
	case MultiPoint:
		if len(v) == 0 {
			b.WriteString("MULTIPOINT EMPTY")
			return
		}
		b.WriteString("MULTIPOINT (")
		for i, p := range v {
			if i > 0 {
				b.WriteString(", ")
			}
			writeCoord(b, p)
		}
		b.WriteByte(')')
	case LineString:
		if len(v) == 0 {
			b.WriteString("LINESTRING EMPTY")
			return
		}
		b.WriteString("LINESTRING ")
		writeCoordList(b, v)
	case MultiLineString:
		if len(v) == 0 {
			b.WriteString("MULTILINESTRING EMPTY")
			return
		}
		b.WriteString("MULTILINESTRING (")
		for i, l := range v {
			if i > 0 {
				b.WriteString(", ")
			}
			writeCoordList(b, l)
		}
		b.WriteByte(')')
	case Polygon:
		if v.IsEmpty() {
			b.WriteString("POLYGON EMPTY")
			return
		}
		b.WriteString("POLYGON ")
		writePolygonBody(b, v)
	case MultiPolygon:
		if len(v) == 0 {
			b.WriteString("MULTIPOLYGON EMPTY")
			return
		}
		b.WriteString("MULTIPOLYGON (")
		for i, p := range v {
			if i > 0 {
				b.WriteString(", ")
			}
			writePolygonBody(b, p)
		}
		b.WriteByte(')')
	case Collection:
		if len(v) == 0 {
			b.WriteString("GEOMETRYCOLLECTION EMPTY")
			return
		}
		b.WriteString("GEOMETRYCOLLECTION (")
		for i, m := range v {
			if i > 0 {
				b.WriteString(", ")
			}
			writeWKT(b, m)
		}
		b.WriteByte(')')
	default:
		b.WriteString("GEOMETRYCOLLECTION EMPTY")
	}
}

func writeCoord(b *strings.Builder, p Point) {
	b.WriteString(formatCoord(p.X))
	b.WriteByte(' ')
	b.WriteString(formatCoord(p.Y))
}

func writeCoordList(b *strings.Builder, pts []Point) {
	b.WriteByte('(')
	for i, p := range pts {
		if i > 0 {
			b.WriteString(", ")
		}
		writeCoord(b, p)
	}
	b.WriteByte(')')
}

func writePolygonBody(b *strings.Builder, p Polygon) {
	b.WriteByte('(')
	writeCoordList(b, p.Shell)
	for _, h := range p.Holes {
		b.WriteString(", ")
		writeCoordList(b, h)
	}
	b.WriteByte(')')
}

// formatCoord trims trailing zeros so serialised products stay compact.
func formatCoord(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
