// Dense bitset lattices for fused multi-class IR evaluation. A fused pass
// runs every weapon-class lane over one file in a single traversal; the
// types here carry "one fact per lane" compactly: laneMask is a dense bitset
// over the active lanes (a single machine word for ≤64 classes — every
// realistic configuration — spilling to extra words beyond that), and fval
// is the fused taint cell, holding either one Value shared by every lane or
// a per-lane spill once lanes diverge.
package taint

import "math/bits"

// laneMask is a bitset over the lanes of one fused evaluation. Lane i lives
// in lo when i < 64 and in hi[i/64-1] otherwise; masks for ≤64 lanes never
// allocate. The zero value is the empty mask. Masks are immutable values:
// every operation returns a new mask and never writes through a shared hi
// word slice.
type laneMask struct {
	lo uint64
	hi []uint64
}

// fullMask returns the mask with lanes 0..n-1 set.
func fullMask(n int) laneMask {
	if n <= 0 {
		return laneMask{}
	}
	if n <= 64 {
		if n == 64 {
			return laneMask{lo: ^uint64(0)}
		}
		return laneMask{lo: 1<<uint(n) - 1}
	}
	m := laneMask{lo: ^uint64(0), hi: make([]uint64, (n+63)/64-1)}
	rest := n - 64
	for i := range m.hi {
		if rest >= 64 {
			m.hi[i] = ^uint64(0)
			rest -= 64
		} else {
			m.hi[i] = 1<<uint(rest) - 1
			rest = 0
		}
	}
	return m
}

// with returns m with lane i added.
func (m laneMask) with(i int) laneMask {
	if i < 64 {
		m.lo |= 1 << uint(i)
		return m
	}
	w := i/64 - 1
	hi := make([]uint64, max(len(m.hi), w+1))
	copy(hi, m.hi)
	hi[w] |= 1 << uint(i%64)
	m.hi = hi
	return m
}

func (m laneMask) has(i int) bool {
	if i < 64 {
		return m.lo&(1<<uint(i)) != 0
	}
	w := i/64 - 1
	return w < len(m.hi) && m.hi[w]&(1<<uint(i%64)) != 0
}

func (m laneMask) empty() bool {
	if m.lo != 0 {
		return false
	}
	for _, w := range m.hi {
		if w != 0 {
			return false
		}
	}
	return true
}

// eq compares with zero extension, so masks that differ only in trailing
// zero words are equal.
func (m laneMask) eq(o laneMask) bool {
	if m.lo != o.lo {
		return false
	}
	a, b := m.hi, o.hi
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, w := range a {
		var ow uint64
		if i < len(b) {
			ow = b[i]
		}
		if w != ow {
			return false
		}
	}
	return true
}

func (m laneMask) and(o laneMask) laneMask {
	out := laneMask{lo: m.lo & o.lo}
	if len(m.hi) > 0 && len(o.hi) > 0 {
		n := min(len(m.hi), len(o.hi))
		out.hi = make([]uint64, n)
		for i := 0; i < n; i++ {
			out.hi[i] = m.hi[i] & o.hi[i]
		}
	}
	return out
}

func (m laneMask) or(o laneMask) laneMask {
	out := laneMask{lo: m.lo | o.lo}
	if len(m.hi) > 0 || len(o.hi) > 0 {
		out.hi = make([]uint64, max(len(m.hi), len(o.hi)))
		copy(out.hi, m.hi)
		for i, w := range o.hi {
			out.hi[i] |= w
		}
	}
	return out
}

func (m laneMask) andNot(o laneMask) laneMask {
	out := laneMask{lo: m.lo &^ o.lo}
	if len(m.hi) > 0 {
		out.hi = make([]uint64, len(m.hi))
		copy(out.hi, m.hi)
		for i, w := range o.hi {
			if i >= len(out.hi) {
				break
			}
			out.hi[i] &^= w
		}
	}
	return out
}

func (m laneMask) count() int {
	n := bits.OnesCount64(m.lo)
	for _, w := range m.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// first returns the lowest set lane, or -1 on the empty mask.
func (m laneMask) first() int {
	if m.lo != 0 {
		return bits.TrailingZeros64(m.lo)
	}
	for i, w := range m.hi {
		if w != 0 {
			return 64*(i+1) + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// forEach calls fn for every set lane in ascending order.
func (m laneMask) forEach(fn func(lane int)) {
	for w := m.lo; w != 0; w &= w - 1 {
		fn(bits.TrailingZeros64(w))
	}
	for i, hw := range m.hi {
		for w := hw; w != 0; w &= w - 1 {
			fn(64*(i+1) + bits.TrailingZeros64(w))
		}
	}
}

// fval is the fused taint cell: one Value per lane. While every lane agrees
// the cell stays uniform (segs == nil) and uni is the single shared Value —
// byte-for-byte what each lane would have computed running alone,
// since isomorphic evaluation over identical inputs builds identical values.
// Once lanes diverge (a sanitizer that only some classes recognize, an
// entry point only some classes taint) the cell spills to segs: a set of
// disjoint lane groups, each sharing one Value. Classes cluster — fifteen
// lanes typically split into two or three groups at a divergence point —
// so segment storage keeps the per-operation cost proportional to the
// number of distinct values, not the lane count: a group's Value evolves
// through exactly the operations each of its lanes would apply alone (the
// uniform-cell argument over a subgroup), and per-lane work happens only
// where lanes genuinely differ. Lanes covered by no segment read the zero
// Value; entries outside the owning frame's active mask are meaningless.
// mask tracks which lanes hold a tainted value, so taint-gated operations —
// sanitizer kills, sink argument checks, conservative element writes —
// reduce to bitwise tests across all classes at once. (mask is authoritative
// and may be clamped below the segments' Tainted bits by restriction; it is
// never wider.)
//
// Aliasing rule: a segs slice is immutable once the fval is stored anywhere
// (a register, an environment cell, a snapshot). Operations that change a
// group's Value build a fresh segs slice; appending to a Value's internal
// slices is allowed only on a freshly built Value (the same discipline the
// scalar engine applies to Value itself).
type fval struct {
	mask laneMask
	uni  Value
	segs []fvalSeg
}

// fvalSeg is one lane group of a spilled fval: the lanes in m share v.
type fvalSeg struct {
	m laneMask
	v Value
}

// fuseUniform wraps one shared Value for every lane in act.
func fuseUniform(v Value, act laneMask) fval {
	fv := fval{uni: v}
	if v.Tainted {
		fv.mask = act
	}
	return fv
}

// get reads lane l's Value.
func (v fval) get(l int) Value {
	if v.segs == nil {
		return v.uni
	}
	for _, s := range v.segs {
		if s.m.has(l) {
			return s.v
		}
	}
	return Value{}
}

// forEachSeg calls fn once per group of lanes in m that share one Value,
// covering every lane of m: lanes outside every segment form a final group
// carrying the zero Value.
func (v fval) forEachSeg(m laneMask, fn func(g laneMask, val Value)) {
	if m.empty() {
		return
	}
	if v.segs == nil {
		fn(m, v.uni)
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
		fn(rest, Value{})
	}
}

// refineSegs splits every part along v's segmentation, so lanes sharing a
// part of the result see the same Value in v. Parts stay disjoint.
func refineSegs(parts []laneMask, v fval) []laneMask {
	if v.segs == nil {
		return parts
	}
	out := make([]laneMask, 0, len(parts)+len(v.segs))
	for _, p := range parts {
		v.forEachSeg(p, func(g laneMask, _ Value) { out = append(out, g) })
	}
	return out
}
