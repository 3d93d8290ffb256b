package main

import (
	"fmt"
	"sort"
)

// seg is a stretch of time [a, b) during which a span holds weight w of
// its root's wall clock.
type seg struct {
	a, b int64
	w    float64
}

// attribution splits every root span's duration among the layers. A span's
// self time is its duration minus the time its child spans cover; where
// children overlap (sparksim's executors, the ranks of a checkpoint step),
// each instant is shared equally among the children running at it, so the
// layers' self times always sum to the roots' durations.
type attribution struct {
	self      [numLayers]float64 // ns
	rootTotal float64            // ns, summed over root spans
}

// children indexes each span's children: the children of span i are
// kids[first[i]:first[i+1]], in creation order.
type children struct {
	first []int32
	kids  []int32
}

func childIndex(spans []span) children {
	first := make([]int32, len(spans)+1)
	for _, sp := range spans {
		if sp.parent >= 0 {
			first[sp.parent+1]++
		}
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	kids := make([]int32, first[len(spans)])
	next := append([]int32(nil), first[:len(spans)]...)
	for i, sp := range spans {
		if sp.parent >= 0 {
			kids[next[sp.parent]] = int32(i)
			next[sp.parent]++
		}
	}
	return children{first: first, kids: kids}
}

func (c children) of(i int32) []int32 { return c.kids[c.first[i]:c.first[i+1]] }

// attribute computes the attribution of spans, whose parent indices point
// into the same slice.
func attribute(spans []span, tree children) (attribution, error) {
	var roots []int32
	for i, sp := range spans {
		if sp.end < sp.start {
			return attribution{}, fmt.Errorf("span %d (%s) never ended", i, callNames[sp.call])
		}
		if sp.parent < 0 {
			roots = append(roots, int32(i))
		}
	}
	var at attribution
	var walk func(i int32, ws []seg)
	walk = func(i int32, ws []seg) {
		sp := spans[i]
		kids := tree.of(i)
		if len(kids) == 0 {
			for _, s := range ws {
				at.self[sp.layer] += float64(s.b-s.a) * s.w
			}
			return
		}
		if len(ws) == 1 && sequential(spans, kids) {
			covered := int64(0)
			for _, k := range kids {
				a, b := max(ws[0].a, spans[k].start), min(ws[0].b, spans[k].end)
				if a < b {
					covered += b - a
					walk(k, []seg{{a, b, ws[0].w}})
				}
			}
			at.self[sp.layer] += float64(ws[0].b-ws[0].a-covered) * ws[0].w
			return
		}
		// Sweep the boundaries of the parent's weight segments and of the
		// children; between consecutive boundaries the set of running
		// children is constant.
		type edge struct {
			t   int64
			kid int32 // -1 for a weight-segment boundary
			on  bool
		}
		edges := make([]edge, 0, 2*len(kids)+len(ws)+1)
		for _, k := range kids {
			edges = append(edges, edge{clamp(spans[k].start, sp), k, true}, edge{clamp(spans[k].end, sp), k, false})
		}
		for _, s := range ws {
			edges = append(edges, edge{s.a, -1, false}, edge{s.b, -1, false})
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a].t < edges[b].t })
		kidSegs := make(map[int32][]seg, len(kids))
		running := make(map[int32]bool)
		wi := 0
		for e := 0; e < len(edges); {
			t := edges[e].t
			e0 := e
			for ; e < len(edges) && edges[e].t == t; e++ {
				if edges[e].kid >= 0 && edges[e].on {
					running[edges[e].kid] = true
				}
			}
			// Ends after starts, so a child that starts and ends at the
			// same instant is not left running.
			for _, ed := range edges[e0:e] {
				if ed.kid >= 0 && !ed.on {
					delete(running, ed.kid)
				}
			}
			if e == len(edges) {
				break
			}
			next := edges[e].t
			// Walk the weight segments covering [t, next).
			for a := t; a < next; {
				for wi < len(ws) && ws[wi].b <= a {
					wi++
				}
				if wi == len(ws) || ws[wi].a >= next {
					break // a gap outside the span's weighted time
				}
				if ws[wi].a > a {
					a = ws[wi].a
				}
				b := min(next, ws[wi].b)
				w := ws[wi].w
				if len(running) == 0 {
					at.self[sp.layer] += float64(b-a) * w
				} else {
					share := w / float64(len(running))
					for k := range running {
						kidSegs[k] = append(kidSegs[k], seg{a, b, share})
					}
				}
				a = b
			}
		}
		for _, k := range kids {
			walk(k, mergeSegs(kidSegs[k]))
		}
	}
	for _, r := range roots {
		sp := spans[r]
		at.rootTotal += float64(sp.end - sp.start)
		walk(r, []seg{{sp.start, sp.end, 1}})
	}
	return at, nil
}

// sequential reports whether the spans kids, in creation order, never
// overlap: the common case of one goroutine's calls.
func sequential(spans []span, kids []int32) bool {
	for j := 1; j < len(kids); j++ {
		if spans[kids[j]].start < spans[kids[j-1]].end {
			return false
		}
	}
	return true
}

// clamp limits a child's boundary to its parent's interval: a child that
// outlives its parent (it cannot, for synchronous calls) would otherwise
// draw time from outside the root.
func clamp(t int64, parent span) int64 {
	return max(parent.start, min(t, parent.end))
}

// mergeSegs sorts a child's weight segments by start and joins adjacent
// ones of equal weight.
func mergeSegs(ss []seg) []seg {
	sort.Slice(ss, func(a, b int) bool { return ss[a].a < ss[b].a })
	out := ss[:0]
	for _, s := range ss {
		if n := len(out); n > 0 && out[n-1].b == s.a && out[n-1].w == s.w {
			out[n-1].b = s.b
			continue
		}
		out = append(out, s)
	}
	return out
}

// check verifies conservation: the layers' self times sum to the roots'
// durations.
func (at attribution) check() error {
	var sum float64
	for _, v := range at.self {
		sum += v
	}
	if diff := sum - at.rootTotal; diff > 1e-6*at.rootTotal+1 || diff < -(1e-6*at.rootTotal+1) {
		return fmt.Errorf("attribution does not add up: layers sum to %.0f ns, roots to %.0f ns", sum, at.rootTotal)
	}
	return nil
}

// unattributed is the share of root time spent in the generator itself,
// outside every traced layer call.
func (at attribution) unattributed() float64 {
	if at.rootTotal == 0 {
		return 0
	}
	return at.self[layerBench] / at.rootTotal
}
