package stsparql

import (
	"strings"
	"testing"
)

// TestParseNestingDepthBound pins the parser's nesting bound: queries
// nesting up to the bound parse, deeper ones — parentheses, unary
// chains, groups and sub-selects alike — return an error instead of
// recursing until the goroutine stack overflows.
func TestParseNestingDepthBound(t *testing.T) {
	nest := func(n int, open, mid, close string) string {
		return strings.Repeat(open, n) + mid + strings.Repeat(close, n)
	}
	// Nesting levels a query uses besides the construct under test: the
	// WHERE group and the FILTER's outer expression.
	const shallow = maxNestingDepth - 8
	cases := []struct {
		name string
		make func(n int) string
	}{
		{"parentheses", func(n int) string {
			return `SELECT ?s WHERE { ?s ?p ?o FILTER(` + nest(n, "(", "?o", ")") + `) }`
		}},
		{"unary", func(n int) string {
			return `SELECT ?s WHERE { ?s ?p ?o FILTER(` + strings.Repeat("!", n) + `bound(?o)) }`
		}},
		{"function arguments", func(n int) string {
			return `SELECT ?s WHERE { ?s ?p ?o FILTER(` + nest(n, "str(", "?o", ")") + ` = "x") }`
		}},
		{"groups", func(n int) string {
			return `SELECT ?s WHERE ` + nest(n, "{ ", "?s ?p ?o .", " }")
		}},
		{"sub-selects", func(n int) string {
			return nest(n, "SELECT ?s WHERE { ", "?s ?p ?o .", " }")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.make(shallow/2), nil); err != nil {
				t.Fatalf("nesting within the bound rejected: %v", err)
			}
			for _, n := range []int{maxNestingDepth + 1, 1 << 16} {
				_, err := Parse(tc.make(n), nil)
				if err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
					t.Fatalf("depth %d: want a nesting error, got %v", n, err)
				}
			}
		})
	}
}
