// Dense bitset lattices for fused multi-class IR evaluation. A fused pass
// runs every weapon-class lane over one file in a single traversal; the
// types here carry "one fact per lane" compactly: laneMask is one machine
// word with a bit per lane, so a pass holds at most MaxLanes lanes, and
// fval is the fused taint cell, holding either one value shared by every
// lane or a per-lane spill once lanes diverge.
package taint

import "math/bits"

// MaxLanes is the most lanes one fused pass, and so one Table, can hold:
// the bits of a laneMask.
const MaxLanes = 64

// laneMask is a bitset over the lanes of one fused evaluation: lane i is
// bit i. The zero value is the empty mask.
type laneMask uint64

// with returns m with lane i added.
func (m laneMask) with(i int) laneMask { return m | 1<<uint(i) }

func (m laneMask) has(i int) bool { return m&(1<<uint(i)) != 0 }

func (m laneMask) empty() bool { return m == 0 }

func (m laneMask) eq(o laneMask) bool { return m == o }

func (m laneMask) and(o laneMask) laneMask { return m & o }

func (m laneMask) or(o laneMask) laneMask { return m | o }

func (m laneMask) andNot(o laneMask) laneMask { return m &^ o }

// first returns the lowest set lane, or -1 on the empty mask.
func (m laneMask) first() int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(m))
}

// forEach calls fn for every set lane in ascending order.
func (m laneMask) forEach(fn func(lane int)) {
	for w := uint64(m); w != 0; w &= w - 1 {
		fn(bits.TrailingZeros64(w))
	}
}

// fval is the fused taint cell: one value per lane. A lane's value is a
// tval, its taint bit plus one pointer into the immutable provenance graph
// (prov.go). While every lane agrees the cell stays uniform (segs nil, part
// empty) and uni is the single shared value — the very node each lane would
// have built running alone, since isomorphic evaluation over identical
// inputs builds identical histories. Once lanes diverge (a sanitizer that
// only some classes recognize, an entry point only some classes taint) the
// cell spills, in exactly one of two forms. A spill with one lane group
// holding a value and every other lane the zero value keeps the value in
// uni and the group in part, with no allocation: it is two thirds of the
// spills a scan of the large benchmark app builds. Any other spill is segs,
// two or more disjoint lane groups, each sharing one value; segs never
// holds a single group. Classes cluster — fifteen lanes typically split
// into two or three groups at a divergence point — so segment storage keeps
// the per-operation cost proportional to the number of distinct values,
// not the lane count: a group's value evolves through exactly the
// operations each of its lanes would apply alone (the uniform-cell argument
// over a subgroup), and per-lane work happens only where lanes genuinely
// differ. Lanes covered by no group read the zero value; entries outside
// the owning frame's active mask are meaningless. mask tracks which lanes
// hold a tainted value, so taint-gated operations — sanitizer kills, sink
// argument checks, conservative element writes — reduce to bitwise tests
// across all classes at once. (mask is authoritative and may be clamped
// below the segments' taint bits by restriction; it is never wider.)
//
// Aliasing rule: provenance nodes are immutable, so copying a cell copies
// pointers and never history, and any number of registers, environment
// cells, snapshots and summaries may share one node. A segs slice is
// likewise immutable once the fval is stored anywhere (a register, an
// environment cell, a snapshot): operations that change a group's value
// build a fresh segs slice.
type fval struct {
	mask laneMask
	uni  tval
	// part, when not empty (and segs nil), is the one lane group holding
	// uni.
	part laneMask
	segs []fvalSeg
}

// uniform reports whether every lane reads uni.
func (v fval) uniform() bool { return v.segs == nil && v.part.empty() }

// fvalSeg is one lane group of a spilled fval: the lanes in m share v.
type fvalSeg struct {
	m laneMask
	v tval
}

// fuseUniform wraps one shared value for every lane in act.
func fuseUniform(v tval, act laneMask) fval {
	fv := fval{uni: v}
	if v.Tainted {
		fv.mask = act
	}
	return fv
}

// get reads lane l's value.
func (v fval) get(l int) tval {
	if v.segs == nil {
		if v.part.empty() || v.part.has(l) {
			return v.uni
		}
		return tval{}
	}
	for _, s := range v.segs {
		if s.m.has(l) {
			return s.v
		}
	}
	return tval{}
}

// forEachSeg calls fn once per group of lanes in m that share one value,
// covering every lane of m: lanes outside every segment form a final group
// carrying the zero value.
func (v fval) forEachSeg(m laneMask, fn func(g laneMask, val tval)) {
	if m.empty() {
		return
	}
	if v.uniform() {
		fn(m, v.uni)
		return
	}
	if v.segs == nil {
		if g := v.part.and(m); !g.empty() {
			fn(g, v.uni)
		}
		if rest := m.andNot(v.part); !rest.empty() {
			fn(rest, tval{})
		}
		return
	}
	rest := m
	for _, s := range v.segs {
		g := s.m.and(rest)
		if g.empty() {
			continue
		}
		fn(g, s.v)
		rest = rest.andNot(g)
		if rest.empty() {
			return
		}
	}
	if !rest.empty() {
		fn(rest, tval{})
	}
}

// refineSegs splits every part along v's segmentation, so lanes sharing a
// part of the result see the same value in v. Parts stay disjoint; when v
// splits none of them, parts itself is returned.
func refineSegs(parts []laneMask, v fval) []laneMask {
	if v.uniform() {
		return parts
	}
	var out []laneMask
	for i, p := range parts {
		n := 0
		v.forEachSeg(p, func(laneMask, tval) { n++ })
		switch {
		case n > 1 && out == nil:
			out = append(make([]laneMask, 0, len(parts)+len(v.segs)+1), parts[:i]...)
		case out == nil:
			continue
		}
		v.forEachSeg(p, func(g laneMask, _ tval) { out = append(out, g) })
	}
	if out == nil {
		return parts
	}
	return out
}
