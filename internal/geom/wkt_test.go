package geom

import (
	"strings"
	"testing"
	"time"
)

// nestedCollection nests n GEOMETRYCOLLECTIONs around one point.
func nestedCollection(n int) string {
	return strings.Repeat("GEOMETRYCOLLECTION(", n) + "POINT(1 2)" + strings.Repeat(")", n)
}

// flatCollection lists n points in one GEOMETRYCOLLECTION.
func flatCollection(n int) string {
	return "GEOMETRYCOLLECTION(" + strings.TrimSuffix(strings.Repeat("POINT(1 2),", n), ",") + ")"
}

// TestWKTLargeInputsParseInLinearTime is the regression test for a
// one-request CPU denial of service: the EMPTY check upper-cased the
// whole remaining input once per geometry tag, so a megabyte-sized
// collection literal took the best part of a minute to parse. Both
// shapes fill the endpoint's 1 MiB request cap.
func TestWKTLargeInputsParseInLinearTime(t *testing.T) {
	const size = 1 << 20
	cases := []struct {
		name    string
		src     string
		wantErr bool
	}{
		{"flat", flatCollection((size - len("GEOMETRYCOLLECTION()")) / len("POINT(1 2),")), false},
		{"nested", nestedCollection((size - len("POINT(1 2)")) / len("GEOMETRYCOLLECTION()")), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.src) < size*9/10 || len(tc.src) > size {
				t.Fatalf("input %d bytes, want just under %d", len(tc.src), size)
			}
			start := time.Now()
			_, err := ParseWKT(tc.src)
			if took := time.Since(start); took > time.Second {
				t.Fatalf("parse took %v", took)
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
		})
	}
}

// TestWKTCollectionDepthBound: collections nest up to the bound, and one
// level more is an error, not a stack-hungry recursion.
func TestWKTCollectionDepthBound(t *testing.T) {
	g, err := ParseWKT(nestedCollection(maxCollectionDepth))
	if err != nil {
		t.Fatalf("depth %d rejected: %v", maxCollectionDepth, err)
	}
	depth := 0
	for c, ok := g.(Collection); ok; c, ok = c[0].(Collection) {
		depth++
	}
	if depth != maxCollectionDepth {
		t.Fatalf("parsed depth %d, want %d", depth, maxCollectionDepth)
	}
	_, err = ParseWKT(nestedCollection(maxCollectionDepth + 1))
	if err == nil || !strings.Contains(err.Error(), "nested deeper than") {
		t.Fatalf("depth %d: want a nesting error, got %v", maxCollectionDepth+1, err)
	}
}

// TestWKTEmptyAnyCase pins the EMPTY keyword's accepted language: any
// letter case, and nothing shorter.
func TestWKTEmptyAnyCase(t *testing.T) {
	for _, src := range []string{"POINT EMPTY", "point empty", "Polygon Empty", "GEOMETRYCOLLECTION\teMpTy"} {
		g, err := ParseWKT(src)
		if err != nil || !g.IsEmpty() {
			t.Errorf("parse %q = %v, %v; want an empty geometry", src, g, err)
		}
	}
	for _, src := range []string{"POINT EMPT", "POINT EMPTYX", "POINT E"} {
		if _, err := ParseWKT(src); err == nil {
			t.Errorf("parse %q: expected error", src)
		}
	}
}

// FuzzParseWKT feeds arbitrary text pairs to the parser: it must never
// panic, and whatever parses must satisfy the predicate identities the
// engine's spatial joins rely on — Intersects is symmetric, Contains
// implies Intersects, and Within(a, b) is Contains(b, a). The seed
// corpus is in testdata/fuzz/FuzzParseWKT.
func FuzzParseWKT(f *testing.F) {
	for _, s := range []string{
		"POINT (1 2)",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 1 2, 2 2, 2 1, 1 1))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((2 2, 3 2, 3 3, 2 3, 2 2)))",
		"LINESTRING (0 0, 3 3)",
		"GEOMETRYCOLLECTION (POINT (1 1), LINESTRING (0 0, 2 2))",
		"point empty",
	} {
		f.Add(s, "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ga, errA := ParseWKT(a)
		gb, errB := ParseWKT(b)
		if errA != nil || errB != nil {
			return
		}
		if Intersects(ga, gb) != Intersects(gb, ga) {
			t.Fatalf("Intersects not symmetric for %q, %q", a, b)
		}
		if Contains(ga, gb) && !Intersects(ga, gb) {
			t.Fatalf("Contains without Intersects for %q, %q", a, b)
		}
		if Within(ga, gb) != Contains(gb, ga) {
			t.Fatalf("Within(a, b) != Contains(b, a) for %q, %q", a, b)
		}
	})
}
