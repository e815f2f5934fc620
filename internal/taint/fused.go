// The taint evaluator: every weapon-class lane analyzes one file in a
// single traversal of its lowered form. Each lane is a fully configured
// Analyzer — its candidate list, memo tables, shared-cache bookkeeping and
// step count keep per-(file, class) granularity — but the instruction tape
// is interpreted once, carrying fval cells (one taint value per lane,
// collapsed to a single shared value while lanes agree). A single class is
// simply a one-lane pass (Analyzer.FileIR).
//
// Lanes are independent: after a pass, every lane's candidates, step count
// and pending summaries equal what the same Analyzer produces running alone.
// That holds because fused execution is a lockstep product construction:
// lanes only diverge at class-dependent points (sanitizer sets, entry
// points, sinks, per-lane memo and shared-cache hits), and at those points
// the evaluation splits into per-lane values or narrowed sub-masks that
// reproduce each lane's own semantics exactly — including join's
// identity fast path, because a uniform cell holds one provenance node
// playing the role of the isomorphic per-lane values, and a spilled cell
// holds each lane's own node.
//
// Step budgets are per lane. The instruction that would take a lane past
// its budget is not executed for it: the lane leaves every active mask and
// freezes with its candidates, a step count of budget+1, the Exhausted flag
// and the pending summaries of the fills it completed (the open fill is
// dropped).
// The other lanes run on. The cooperative stop freezes every lane the same
// way, marking them Stopped.
package taint

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/php/ast"
	"repro/internal/php/token"
)

// Fused runs N weapon-class analyzer lanes over one file in a single IR
// traversal. A lane is a class index of the pass's table; lanes holds the
// pass's analyzers at their lanes (nil for the table's classes the pass
// does not run), and order maps a config position to its lane.
type Fused struct {
	tab   *Table
	lanes []*Analyzer
	order []int
	full  laneMask
	// live holds the lanes still running: a lane that exhausts its budget
	// or sees the stop leaves it for the rest of the pass.
	live laneMask
	// frames is the activation stack, so freezing a lane can drop it from
	// every active frame's mask at once.
	frames []*fframe

	astFile         *ast.File
	prov            *irProvider
	resolver        FuncResolver
	disableInlining bool
	// budget and stop are shared by every lane (the scheduler builds all
	// lane configs from one task template); each lane's step count is still
	// tracked exactly and checked against the budget on its own.
	budget  int
	stop    *atomic.Bool
	stopped bool

	// Step accounting: ctxSteps counts instructions charged to every lane
	// in ctxMask (the live lanes of the running frame) since the last
	// flush; maxBase is the largest per-lane step count among ctxMask lanes
	// at that flush. A lane crosses its budget when maxBase+ctxSteps does.
	ctxMask  laneMask
	ctxSteps int
	maxBase  int
	pollCtr  int

	// mat builds the provenance of findings and memo-key arguments, each
	// node once per pass; every lane shares it.
	mat materializer
	// bareSans holds one node per sanitizer name applied to arguments
	// without sanitizer names (see Fused.sanVal).
	bareSans map[string]*pnode
}

// NewFused builds a fused evaluator with one analyzer lane per config, on a
// table compiled for this call: lane i is cfgs[i].Class with its
// ExtraSanitizers folded in. All configs must agree on Resolver,
// DisableInlining, MaxSteps and Stop; per-class fields (Class,
// ExtraSanitizers, Shared) vary freely. It panics on more than MaxLanes
// configs, the lanes of one pass. A caller running many passes over one
// class set compiles it once and uses Table.NewFused.
func NewFused(cfgs []Config) *Fused {
	lanes := make([]*Analyzer, len(cfgs))
	order := make([]int, len(cfgs))
	for i, c := range cfgs {
		lanes[i] = newAnalyzer(c)
		order[i] = i
	}
	return newFused(compileConfigs(cfgs), lanes, order)
}

func newFused(tab *Table, lanes []*Analyzer, order []int) *Fused {
	fz := &Fused{tab: tab, lanes: lanes, order: order}
	for _, l := range order {
		fz.full = fz.full.with(l)
	}
	if len(order) > 0 {
		cfg := lanes[order[0]].cfg
		fz.resolver = cfg.Resolver
		fz.disableInlining = cfg.DisableInlining
		fz.budget = cfg.MaxSteps
		fz.stop = cfg.Stop
	}
	return fz
}

// Per-lane results take a config position l, not a lane.
func (fz *Fused) lane(l int) *Analyzer { return fz.lanes[fz.order[l]] }

// Candidates returns config l's findings after FileIR.
func (fz *Fused) Candidates(l int) []*Candidate { return fz.lane(l).cands }

// Steps returns config l's exact step count.
func (fz *Fused) Steps(l int) int { return fz.lane(l).steps }

// Exhausted reports whether config l ran out of its step budget (or was
// stopped) and froze with a partial result.
func (fz *Fused) Exhausted(l int) bool { return fz.lane(l).exhausted }

// Stopped reports whether config l was cut off by the cooperative stop.
func (fz *Fused) Stopped(l int) bool { return fz.lane(l).stopped }

// SharedHits returns config l's shared-summary cache hits.
func (fz *Fused) SharedHits(l int) int { return fz.lane(l).sharedHits }

// SharedMisses returns config l's shared-summary cache misses.
func (fz *Fused) SharedMisses(l int) int { return fz.lane(l).sharedMisses }

// TransferHits returns config l's summary transfer-function applications.
func (fz *Fused) TransferHits(l int) int { return fz.lane(l).transferHits }

// PendingShared returns config l's summaries awaiting commit.
func (fz *Fused) PendingShared(l int) []PendingSummary { return fz.lane(l).pending }

// irProvider resolves declarations to lowered functions: the analyzed
// file's own index first, then the scan-scoped provider, then a local
// lowering memo so single-file runs work without any cache.
type irProvider struct {
	file  *ir.File
	prov  ir.Provider
	local map[*ast.FunctionDecl]*ir.Func
}

func (p *irProvider) funcFor(d *ast.FunctionDecl) *ir.Func {
	if p.file != nil {
		if fn, ok := p.file.ByDecl[d]; ok {
			return fn
		}
	}
	if p.prov != nil {
		if fn := p.prov.Func(d); fn != nil {
			return fn
		}
	}
	if fn, ok := p.local[d]; ok {
		return fn
	}
	if p.local == nil {
		p.local = make(map[*ast.FunctionDecl]*ir.Func)
	}
	fn := ir.LowerFunc(d)
	p.local[d] = fn
	return fn
}

// fframe is one function activation of the fused interpreter: the active
// lane mask, the fused register file, the fused environment and the fused
// return accumulator.
type fframe struct {
	act  laneMask
	regs *[]fval
	env  *fenv
	ret  fval
	// lines resolves the positions of the running function's nodes.
	lines *token.LineTable
}

// at resolves the source position of a node of the running function.
func (fr *fframe) at(n ast.Node) token.Position { return fr.lines.Position(n.Pos()) }

func (fr *fframe) val(r ir.Reg) fval {
	if r < 0 {
		return fval{}
	}
	return (*fr.regs)[r]
}

// fregPool recycles fused register files across frames and files. Boxes at
// rest are zero over their whole capacity: newFrame only exposes [0:n) and
// releaseFrame scrubs exactly that window, so reslicing never surfaces a
// stale fval (or keeps one reachable by the GC).
var fregPool = sync.Pool{New: func() any { b := make([]fval, 0, 64); return &b }}

func (fz *Fused) newFrame(fn *ir.Func, act laneMask) *fframe {
	n := fn.NumRegs
	bp := fregPool.Get().(*[]fval)
	if b := *bp; cap(b) >= n {
		*bp = b[:n]
	} else {
		*bp = make([]fval, n)
	}
	fr := &fframe{act: act, regs: bp, env: newFenv(), lines: fn.Lines}
	fz.frames = append(fz.frames, fr)
	return fr
}

// releaseFrame pops fr, the innermost activation, and recycles its
// registers.
func (fz *Fused) releaseFrame(fr *fframe) {
	fz.frames = fz.frames[:len(fz.frames)-1]
	b := *fr.regs
	for i := range b {
		b[i] = fval{}
	}
	fregPool.Put(fr.regs)
	fr.regs = nil
}

// FileIR analyzes f through its lowered form fir with every lane at once.
// prov optionally resolves cross-file declarations to already-lowered
// functions; nil lowers them on demand. Lanes that exhaust their budget
// freeze and the rest complete, so per-lane state is always meaningful; it
// returns false only when the cooperative stop fired.
func (fz *Fused) FileIR(f *ast.File, fir *ir.File, prov ir.Provider) bool {
	for _, l := range fz.order {
		a := fz.lanes[l]
		a.file = f
		a.cands = a.cands[:0]
		a.seen = make(map[string]bool)
		a.steps = 0
		a.exhausted = false
		a.stopped = false
		a.fill = nil
		a.pending = nil
		a.sharedHits = 0
		a.sharedMisses = 0
		a.transferHits = 0
		a.mat = &fz.mat
	}
	fz.mat = materializer{}
	fz.bareSans = nil
	fz.astFile = f
	fz.prov = &irProvider{file: fir, prov: prov}
	fz.live = fz.full
	fz.stopped = false
	fz.ctxSteps = 0
	fz.pollCtr = 0
	fz.setMask(fz.full)

	fr := fz.newFrame(fir.Top, fz.full)
	fz.runRegion(fir.Top.Body, fr)
	fz.releaseFrame(fr)

	// Uncalled-function pass, in source order.
	for _, fn := range fir.Funcs {
		if fz.live.empty() {
			break
		}
		// Call-stack state is lockstep across lanes at top level, so one
		// representative decides the analyzing skip for all.
		if fn.Decl == nil || fn.Decl.Body == nil || fz.lanes[fz.live.first()].analyzing[fn.Decl] {
			continue
		}
		fz.analyzeUncalled(fn)
	}
	fz.flush()
	return !fz.stopped
}

// analyzeUncalled runs a function no top-level code called, with clean
// parameters (defaults evaluated), the way WAP inspects library code whose
// callers are unknown.
func (fz *Fused) analyzeUncalled(fn *ir.Func) {
	act := fz.live
	fz.setMask(act)
	prev := fz.lanes[act.first()].curFunc
	act.forEach(func(l int) {
		a := fz.lanes[l]
		a.curFunc = fn.Name
		a.analyzing[fn.Decl] = true
	})
	fr := fz.newFrame(fn, act)
	for _, prm := range fn.Params {
		if prm.Default != nil {
			fz.envSet(fr.env, prm.Name, fz.runBlockValue(prm.Default, fr), act)
		} else {
			fz.envSet(fr.env, prm.Name, fval{}, act)
		}
	}
	fz.runRegion(fn.Body, fr)
	act.forEach(func(l int) {
		a := fz.lanes[l]
		delete(a.analyzing, fn.Decl)
		a.curFunc = prev
	})
	fz.releaseFrame(fr)
}

// ---------------------------------------------------------------------------
// Step accounting
// ---------------------------------------------------------------------------

// step charges one instruction to every live lane of the running frame. A
// lane the charge takes past its budget freezes — its count stays at
// budget+1 and the instruction does not run for it — while the other lanes
// execute the instruction. step returns false once no lane of the frame is
// left, or the cooperative stop froze them all.
func (fz *Fused) step() bool {
	if fz.ctxMask.empty() {
		return false
	}
	fz.ctxSteps++
	if fz.budget > 0 && fz.maxBase+fz.ctxSteps > fz.budget {
		fz.flush()
		var over laneMask
		fz.ctxMask.forEach(func(l int) {
			if fz.lanes[l].steps > fz.budget {
				over = over.with(l)
			}
		})
		fz.freeze(over)
		if fz.ctxMask.empty() {
			return false
		}
	}
	// The atomic load is cheap but pointless at full rate; poll every 64
	// instructions so a watchdog still cuts a runaway pass off within
	// microseconds.
	if fz.stop != nil {
		if fz.pollCtr++; fz.pollCtr&63 == 0 && fz.stop.Load() {
			fz.stopped = true
			fz.live.forEach(func(l int) { fz.lanes[l].stopped = true })
			fz.freeze(fz.live)
			return false
		}
	}
	return true
}

// freeze takes the lanes in m out of the pass: they leave the live set and
// every active frame's mask, their open shared-cache fill is dropped, and
// Exhausted reports true for them.
func (fz *Fused) freeze(m laneMask) {
	fz.flush()
	m.forEach(func(l int) {
		a := fz.lanes[l]
		a.exhausted = true
		a.fill = nil
	})
	fz.live = fz.live.andNot(m)
	for _, fr := range fz.frames {
		fr.act = fr.act.andNot(m)
	}
	fz.ctxMask = fz.ctxMask.andNot(m)
	fz.syncBase()
}

// flush folds the accumulated context steps into each active lane's exact
// per-lane counter.
func (fz *Fused) flush() {
	if fz.ctxSteps != 0 {
		n := fz.ctxSteps
		fz.ctxMask.forEach(func(l int) { fz.lanes[l].steps += n })
		fz.ctxSteps = 0
		fz.maxBase += n
	}
}

// setMask flushes and switches the charging context to the live lanes of m.
func (fz *Fused) setMask(m laneMask) {
	fz.flush()
	fz.ctxMask = m.and(fz.live)
	fz.syncBase()
}

// syncBase recomputes maxBase from the current lanes' counters (needed
// after per-lane charges such as shared-summary replays).
func (fz *Fused) syncBase() {
	mb := 0
	fz.ctxMask.forEach(func(l int) {
		if s := fz.lanes[l].steps; s > mb {
			mb = s
		}
	})
	fz.maxBase = mb
}

// ---------------------------------------------------------------------------
// Fused environment
// ---------------------------------------------------------------------------

// fcell is one variable binding across lanes: present marks the lanes whose
// environment holds the binding at all (absent lanes read clean and
// are eligible for branch-merge writes), v carries the per-lane values.
// Invariant: v.mask ⊆ present.
type fcell struct {
	present laneMask
	v       fval
}

// fenv is the fused variable environment. written tracks per-lane write
// masks inside switch arms (nil elsewhere), which the switch join's kill
// set is computed from.
type fenv struct {
	vars    map[string]fcell
	written map[string]laneMask
}

func newFenv() *fenv {
	return &fenv{vars: make(map[string]fcell)}
}

func copyFcells(m map[string]fcell) map[string]fcell {
	out := make(map[string]fcell, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func oneLane(l int) laneMask { return laneMask(0).with(l) }

// restrictF clamps an fval's taint mask to m (the value payload is shared;
// out-of-mask lanes simply never read it).
func restrictF(v fval, m laneMask) fval {
	v.mask = v.mask.and(m)
	return v
}

// envGet reads a binding for the lanes in act: present lanes see their
// value, absent lanes see clean.
func (fz *Fused) envGet(e *fenv, name string, act laneMask) fval {
	c, ok := e.vars[name]
	if !ok {
		return fval{}
	}
	if act.andNot(c.present).empty() {
		return restrictF(c.v, act)
	}
	if c.v.uniform() && zeroValue(c.v.uni) {
		// Absent lanes read the zero value; a bottom uniform cell is
		// indistinguishable from it under merge and join.
		return fval{}
	}
	b := fvalParts{act: act}
	b.addF(c.present.and(act), c.v)
	return b.finish()
}

// blendCell overlays v onto c for the lanes in m, keeping other present
// lanes' values.
func (fz *Fused) blendCell(c fcell, v fval, m laneMask) fcell {
	b := fvalParts{act: c.present.or(m)}
	b.addF(m, v)
	b.addF(c.present.andNot(m), c.v)
	return fcell{present: c.present.or(m), v: b.finish()}
}

// envSet overwrites the binding for the lanes in m.
func (fz *Fused) envSet(e *fenv, name string, v fval, m laneMask) {
	c, ok := e.vars[name]
	if !ok || c.present.andNot(m).empty() {
		e.vars[name] = fcell{present: m, v: restrictF(v, m)}
	} else {
		e.vars[name] = fz.blendCell(c, v, m)
	}
	if e.written != nil {
		e.written[name] = e.written[name].or(m)
	}
}

// envMergeSet joins v into the binding for the lanes in m (index
// assignment and loop bodies). The union is the canonical join, so
// re-running a loop body or replaying a by-ref summary does not duplicate
// bookkeeping: merge-setting the same value twice is a no-op.
func (fz *Fused) envMergeSet(e *fenv, name string, v fval, m laneMask) {
	c, ok := e.vars[name]
	switch {
	case !ok:
		// join(clean, v) is v, identity preserved.
		e.vars[name] = fcell{present: m, v: restrictF(v, m)}
	case c.present.eq(m) && c.v.uniform() && v.uniform():
		e.vars[name] = fcell{present: m, v: fuseUniform(join(c.v.uni, v.uni), m)}
	default:
		b := fvalParts{act: c.present.or(m)}
		b.addF(c.present.andNot(m), c.v)
		v.forEachSeg(m, func(g laneMask, vv tval) {
			if ab := g.andNot(c.present); !ab.empty() {
				b.addV(ab, join(tval{}, vv))
			}
			c.v.forEachSeg(g.and(c.present), func(g2 laneMask, cv tval) {
				b.addV(g2, join(cv, vv))
			})
		})
		e.vars[name] = fcell{present: c.present.or(m), v: b.finish()}
	}
	if e.written != nil {
		e.written[name] = e.written[name].or(m)
	}
}

// envMergeFrom applies a branch snapshot per lane: tainted snapshot lanes
// join into the current value, untainted ones set only where the lane's
// binding is absent. The join is idempotent and order-independent, so
// merging N snapshots that agree on a binding leaves it untouched. skip
// carries per-binding kill masks (nil outside switch joins): bindings every
// arm overwrote are already resolved and must not be re-merged. It writes
// bindings directly and never marks written.
func (fz *Fused) envMergeFrom(e *fenv, snap map[string]fcell, skip map[string]laneMask, act laneMask) {
	for k, sv := range snap {
		apply := act.and(sv.present)
		if skip != nil {
			apply = apply.andNot(skip[k])
		}
		if apply.empty() {
			continue
		}
		tm := sv.v.mask.and(apply)
		cur, ok := e.vars[k]
		if !ok {
			e.vars[k] = fcell{present: apply, v: restrictF(sv.v, apply)}
			continue
		}
		um := apply.andNot(tm).andNot(cur.present)
		if tm.empty() {
			if !um.empty() {
				e.vars[k] = fz.blendCell(cur, sv.v, um)
			}
			continue
		}
		if sv.v.uniform() && cur.v.uniform() && tm.eq(apply) && cur.present.eq(apply) {
			// Uniform join across exactly the applied lanes.
			e.vars[k] = fcell{present: apply, v: fuseUniform(join(cur.v.uni, sv.v.uni), apply)}
			continue
		}
		// Group-wise joins: the mask grows by tm (a join with a tainted value
		// is tainted), handled by addV's taint bits.
		b := fvalParts{act: cur.present.or(tm).or(um)}
		b.addF(cur.present.andNot(tm), cur.v)
		sv.v.forEachSeg(tm, func(g laneMask, svv tval) {
			if ab := g.andNot(cur.present); !ab.empty() {
				b.addV(ab, join(tval{}, svv))
			}
			cur.v.forEachSeg(g.and(cur.present), func(g2 laneMask, cv tval) {
				b.addV(g2, join(cv, svv))
			})
		})
		b.addF(um, sv.v)
		e.vars[k] = fcell{present: cur.present.or(tm).or(um), v: b.finish()}
	}
}

// ---------------------------------------------------------------------------
// Regions and blocks
// ---------------------------------------------------------------------------

func (fz *Fused) runRegion(r *ir.Region, fr *fframe) {
	if r == nil || fz.ctxMask.empty() {
		return
	}
	switch r.Kind {
	case ir.RBasic:
		fz.runBlock(r.Blk, fr)
	case ir.RSeq:
		for _, k := range r.Kids {
			if fz.ctxMask.empty() {
				return
			}
			fz.runRegion(k, fr)
		}
	case ir.RIf:
		e := fr.env
		base := copyFcells(e.vars)
		fz.runRegion(r.Then, fr)
		thenSnap := copyFcells(e.vars)
		e.vars = base
		if r.Else != nil {
			fz.runRegion(r.Else, fr)
		}
		fz.envMergeFrom(e, thenSnap, nil, fr.act)
	case ir.RLoop2:
		fz.runRegion(r.Body, fr)
		fz.runRegion(r.Body, fr)
	case ir.RForLoop:
		fz.runRegion(r.Body, fr)
		if r.Post != nil && !fz.ctxMask.empty() {
			fz.runBlock(r.Post, fr)
		}
		fz.runRegion(r.Body, fr)
	case ir.RSwitch:
		fz.runSwitch(r, fr)
	}
}

// runSwitch is the fused counterpart of runSwitch, with the kill set
// computed per lane as mask algebra: a binding's pre-switch taint dies in
// exactly the lanes where every arm overwrote it with an untainted value.
func (fz *Fused) runSwitch(r *ir.Region, fr *fframe) {
	e := fr.env
	act := fr.act
	base := copyFcells(e.vars)
	savedWritten := e.written
	snaps := make([]map[string]fcell, 0, len(r.Cases))
	writes := make([]map[string]laneMask, 0, len(r.Cases))
	for _, c := range r.Cases {
		e.vars = copyFcells(base)
		e.written = make(map[string]laneMask)
		if c.Cond != nil {
			fz.runBlock(c.Cond, fr)
		}
		fz.runRegion(c.Body, fr)
		snaps = append(snaps, copyFcells(e.vars))
		writes = append(writes, e.written)
	}
	e.vars = base
	e.written = savedWritten

	var killed map[string]laneMask
	if r.HasDefault && len(writes) > 0 {
		for k, wrote := range writes[0] {
			for _, w := range writes[1:] {
				wrote = wrote.and(w[k])
				if wrote.empty() {
					break
				}
			}
			cand := wrote.and(e.vars[k].v.mask).and(act)
			if cand.empty() {
				continue
			}
			for _, s := range snaps {
				cand = cand.andNot(s[k].v.mask)
				if cand.empty() {
					break
				}
			}
			if cand.empty() {
				continue
			}
			if killed == nil {
				killed = make(map[string]laneMask)
			}
			killed[k] = cand
		}
	}
	for k, km := range killed {
		cur := e.vars[k]
		allUniform := true
		for _, s := range snaps {
			sc := s[k]
			if !sc.v.uniform() || !km.andNot(sc.present).empty() {
				allUniform = false
				break
			}
		}
		if allUniform && cur.v.uniform() && cur.present.eq(km) {
			v := snaps[0][k].v.uni
			for _, s := range snaps[1:] {
				v = join(v, s[k].v.uni)
			}
			e.vars[k] = fcell{present: km, v: fuseUniform(v, km)}
			continue
		}
		// Group km by the joint segmentation of every snapshot's cell; each
		// group's join chain runs once and the result is shared by its lanes.
		parts := []laneMask{km}
		for _, s := range snaps {
			parts = refineCell(parts, s[k])
		}
		b := fvalParts{act: cur.present}
		b.addF(cur.present.andNot(km), cur.v)
		for _, p := range parts {
			l := p.first()
			var v tval
			if sc := snaps[0][k]; sc.present.has(l) {
				v = sc.v.get(l)
			}
			for _, s := range snaps[1:] {
				var sv tval
				if sc := s[k]; sc.present.has(l) {
					sv = sc.v.get(l)
				}
				v = join(v, sv)
			}
			b.addV(p, v)
		}
		e.vars[k] = fcell{present: cur.present, v: b.finish()}
	}
	for _, s := range snaps {
		fz.envMergeFrom(e, s, killed, act)
	}
}

func (fz *Fused) runBlock(b *ir.Block, fr *fframe) {
	if b == nil {
		return
	}
	for i := range b.Instrs {
		if !fz.step() {
			return
		}
		fz.runInstr(&b.Instrs[i], fr)
	}
}

func (fz *Fused) runBlockValue(b *ir.Block, fr *fframe) fval {
	if b == nil {
		return fval{}
	}
	fz.runBlock(b, fr)
	return fr.val(b.Result)
}

// ---------------------------------------------------------------------------
// Fused value operations
// ---------------------------------------------------------------------------

// fmerge is per-lane concatenation. Uniform inputs concatenate once on the
// shared value — the result each lane's isomorphic concatenation would
// build.
func (fz *Fused) fmerge(a, b fval, act laneMask) fval {
	if a.uniform() && b.uniform() {
		return fuseUniform(cat(a.uni, b.uni), act)
	}
	out := fvalParts{act: act}
	a.forEachSeg(act, func(g laneMask, av tval) {
		b.forEachSeg(g, func(g2 laneMask, bv tval) {
			out.addV(g2, cat(av, bv))
		})
	})
	return out.finish()
}

func (fz *Fused) fmergeAll(args []fval, act laneMask) fval {
	out := fval{}
	for _, v := range args {
		out = fz.fmerge(out, v, act)
	}
	return out
}

// withStep appends a trace step to every tainted lane, copy-on-write so
// stored fvals sharing a segs slice are never mutated. A segment straddling
// the tainted mask splits at the boundary; the in-mask piece gets one step
// node (the same step each of its lanes would append alone). The step is
// at ins, an instruction of fr's function; kind and desc are as for
// tval.step.
func (fz *Fused) withStep(v fval, act laneMask, fr *fframe, ins *ir.Instr, kind pkind, desc string) fval {
	tm := v.mask.and(act)
	if tm.empty() {
		return v
	}
	if v.segs == nil {
		rest := v.part.andNot(tm)
		if rest.empty() {
			v.uni = v.uni.step(kind, desc, ins, fr.lines)
			return v
		}
		// The one group straddles the tainted mask: two groups.
		st := v.uni.step(kind, desc, ins, fr.lines)
		v.segs, v.part = []fvalSeg{{m: rest, v: v.uni}, {m: v.part.and(tm), v: st}}, 0
		return v
	}
	segs := make([]fvalSeg, 0, len(v.segs)+1)
	for _, s := range v.segs {
		in := s.m.and(tm)
		if in.empty() {
			segs = append(segs, s)
			continue
		}
		if rest := s.m.andNot(tm); !rest.empty() {
			segs = append(segs, fvalSeg{m: rest, v: s.v})
		}
		segs = append(segs, fvalSeg{m: in, v: s.v.step(kind, desc, ins, fr.lines)})
	}
	v.segs = segs
	return v
}

// refineCell splits parts along a cell's segmentation, with the cell's
// absent lanes forming their own group (they read the zero value). Parts
// stay disjoint.
func refineCell(parts []laneMask, c fcell) []laneMask {
	out := make([]laneMask, 0, len(parts)+2)
	for _, p := range parts {
		if ab := p.andNot(c.present); !ab.empty() {
			out = append(out, ab)
		}
		c.v.forEachSeg(p.and(c.present), func(g laneMask, _ tval) { out = append(out, g) })
	}
	return out
}

// fvalParts assembles a result value from disjoint lane pieces: fused
// sub-results grafted with addF, single shared values attached with addV.
// The taint mask accumulates by mask algebra — addF clamps each piece's own
// mask to its lanes, addV uses the value's taint bit — never by re-deriving
// from stored values, so restriction-clamped masks stay clamped. finish
// collapses back to a uniform cell when one piece covers every active lane.
// The first piece is held inline: most results have one piece and collapse,
// so the pieces slice is only allocated once a second piece arrives.
type fvalParts struct {
	act   laneMask
	mask  laneMask
	first fvalSeg
	n     int
	segs  []fvalSeg // every piece, once there are two
}

func (b *fvalParts) push(s fvalSeg) {
	switch b.n {
	case 0:
		b.first = s
	case 1:
		b.segs = []fvalSeg{b.first, s}
	default:
		b.segs = append(b.segs, s)
	}
	b.n++
}

// addF grafts v's lanes m into the result.
func (b *fvalParts) addF(m laneMask, v fval) {
	if m.empty() {
		return
	}
	b.mask = b.mask.or(v.mask.and(m))
	v.forEachSeg(m, func(g laneMask, val tval) {
		if !zeroValue(val) {
			b.push(fvalSeg{m: g, v: val})
		}
	})
}

// addV attaches one shared value for the lanes in m.
func (b *fvalParts) addV(m laneMask, val tval) {
	if m.empty() {
		return
	}
	if val.Tainted {
		b.mask = b.mask.or(m)
	}
	if !zeroValue(val) {
		b.push(fvalSeg{m: m, v: val})
	}
}

func (b *fvalParts) finish() fval {
	switch {
	case b.n == 0:
		return fval{mask: b.mask}
	case b.n == 1 && b.act.andNot(b.first.m).empty():
		return fval{mask: b.mask, uni: b.first.v}
	case b.n == 1:
		return fval{mask: b.mask, uni: b.first.v, part: b.first.m}
	}
	return fval{mask: b.mask, segs: b.segs}
}

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

func (fz *Fused) runInstr(ins *ir.Instr, fr *fframe) {
	e := fr.env
	regs := *fr.regs
	switch ins.Op {
	case ir.OpConst:
		regs[ins.Dst] = fval{}
	case ir.OpCopy:
		regs[ins.Dst] = fr.val(ins.A)
	case ir.OpLoadVar:
		em := fz.tab.lookup(ins.Name).roles[EntryVar].and(fr.act)
		if em.empty() {
			regs[ins.Dst] = fz.envGet(e, ins.Name, fr.act)
			break
		}
		ev := fuseUniform(entryVal(ins, fr.lines), em)
		if em.eq(fr.act) {
			regs[ins.Dst] = ev
		} else {
			rest := fr.act.andNot(em)
			b := fvalParts{act: fr.act}
			b.addF(em, ev)
			b.addF(rest, fz.envGet(e, ins.Name, rest))
			regs[ins.Dst] = b.finish()
		}
	case ir.OpLoadKey:
		regs[ins.Dst] = fz.envGet(e, ins.Name, fr.act)
	case ir.OpIndex:
		regs[ins.Dst] = fz.runIndex(ins, fr)
	case ir.OpUnion:
		var v fval
		for _, r := range ins.Args {
			v = fz.fmerge(v, fr.val(r), fr.act)
		}
		regs[ins.Dst] = v
	case ir.OpConcat:
		v := fz.fmerge(fr.val(ins.A), fr.val(ins.B), fr.act)
		regs[ins.Dst] = fz.withStep(v, fr.act, fr, ins, pStep, "concatenation")
	case ir.OpInterp:
		var v fval
		for _, r := range ins.Args {
			v = fz.fmerge(v, fr.val(r), fr.act)
		}
		regs[ins.Dst] = fz.withStep(v, fr.act, fr, ins, pStep, "string interpolation")
	case ir.OpAssign:
		rhs := fr.val(ins.A)
		var v fval
		switch ins.AKind {
		case ir.AssignAppend:
			if ins.LV != nil && ins.LV.Kind == ir.LVVar {
				v = fz.fmerge(fz.envGet(e, ins.LV.Name, fr.act), rhs, fr.act)
			} else {
				v = rhs
			}
			v = fz.withStep(v, fr.act, fr, ins, pStep, "append assignment")
		case ir.AssignPlain:
			v = fz.withStep(rhs, fr.act, fr, ins, pStep, "assignment")
		default:
			v = fval{}
		}
		fz.assignLV(ins.LV, v, e, fr.act)
		regs[ins.Dst] = v
	case ir.OpAssignTo:
		fz.assignLV(ins.LV, fr.val(ins.A), e, fr.act)
	case ir.OpSetVar:
		if ins.A < 0 {
			fz.envSet(e, ins.Name, fval{}, fr.act)
		} else {
			fz.envSet(e, ins.Name, fr.val(ins.A), fr.act)
		}
	case ir.OpCall:
		regs[ins.Dst] = fz.runCall(ins, fr)
	case ir.OpMethodCall:
		regs[ins.Dst] = fz.runMethodCall(ins, fr)
	case ir.OpStaticCall:
		regs[ins.Dst] = fz.runStaticCall(ins, fr)
	case ir.OpClosure:
		fz.runClosure(ins, fr)
	case ir.OpPseudoSink, ir.OpNamedSink:
		v := fr.val(ins.A)
		m := fz.tab.lookup(ins.Name).roles[FuncSink].and(fr.act).and(v.mask)
		if !m.empty() {
			pos, arg := fr.at(ins.Node), ins.SinkArg()
			m.forEach(func(l int) {
				fz.lanes[l].reportConstructSink(ins.Name, ins.Node, arg, v.get(l), pos)
			})
		}
	case ir.OpReturn:
		fr.ret = fz.fmerge(fr.ret, fr.val(ins.A), fr.act)
	}
}

// runIndex evaluates an index read. For lanes that treat the base as an
// entry-point superglobal ($_GET['id']) only the index subexpression runs
// and the result is a fresh source; other lanes evaluate base then index and
// yield the base value. When lanes disagree, the base block executes under
// the narrowed non-entry mask (step charges and environment effects
// included), then the index block runs for everyone.
func (fz *Fused) runIndex(ins *ir.Instr, fr *fframe) fval {
	act := fr.act
	var em laneMask
	if ins.Name != "" {
		em = fz.tab.lookup(ins.Name).roles[EntryVar].and(act)
	}
	if em.empty() {
		v := fz.runBlockValue(ins.XBlk, fr)
		if ins.IBlk != nil {
			fz.runBlock(ins.IBlk, fr)
		}
		return v
	}
	epVal := func(m laneMask) fval {
		if ins.Name == "_SERVER" && serverKeySafe(ins.Key) {
			return fval{}
		}
		return fuseUniform(entryVal(ins, fr.lines), m)
	}
	if em.eq(act) {
		if ins.IBlk != nil {
			fz.runBlock(ins.IBlk, fr)
		}
		return epVal(act)
	}
	rest := act.andNot(em)
	fr.act = rest
	fz.setMask(rest)
	base := fz.runBlockValue(ins.XBlk, fr)
	fr.act = act.and(fz.live)
	fz.setMask(act)
	if ins.IBlk != nil {
		fz.runBlock(ins.IBlk, fr)
	}
	b := fvalParts{act: act}
	b.addF(em, epVal(em))
	b.addF(rest, base)
	return b.finish()
}

// assignLV writes through a static assignment target. Element assignment
// taints the whole array conservatively.
func (fz *Fused) assignLV(lv *ir.LValue, v fval, e *fenv, act laneMask) {
	if lv == nil {
		return
	}
	switch lv.Kind {
	case ir.LVVar:
		fz.envSet(e, lv.Name, v, act)
	case ir.LVIndex:
		if tm := v.mask.and(act); !tm.empty() {
			fz.envMergeSet(e, lv.Name, v, tm)
		}
	case ir.LVKey:
		if lv.Strong {
			fz.envSet(e, lv.Name, v, act)
		} else {
			if tm := v.mask.and(act); !tm.empty() {
				fz.envMergeSet(e, lv.Name, v, tm)
			}
			if um := act.andNot(v.mask); !um.empty() {
				fz.envSet(e, lv.Name, v, um)
			}
		}
	case ir.LVList:
		for _, k := range lv.Kids {
			fz.assignLV(k, v, e, act)
		}
	}
}

// assignTo writes a value through an AST assignment target for the lanes
// in m (builtin out-params, by-ref writebacks and shared-summary replays).
// Unknown targets such as variable variables are ignored, a documented
// imprecision WAP shares.
func (fz *Fused) assignTo(lhs ast.Expr, v fval, e *fenv, m laneMask) {
	switch t := lhs.(type) {
	case *ast.Variable:
		fz.envSet(e, t.Name, v, m)
	case *ast.IndexExpr:
		if base := rootVar(t.X); base != "" {
			if tm := v.mask.and(m); !tm.empty() {
				fz.envMergeSet(e, base, v, tm)
			}
		}
	case *ast.PropExpr:
		if key := propKey(t); key != "" {
			if tm := v.mask.and(m); !tm.empty() {
				fz.envMergeSet(e, key, v, tm)
			}
			if um := m.andNot(v.mask); !um.empty() {
				fz.envSet(e, key, v, um)
			}
		}
	case *ast.StaticPropExpr:
		key := "::" + strings.ToLower(t.Class) + "::" + t.Name
		fz.envSet(e, key, v, m)
	case *ast.ListExpr:
		for _, item := range t.Items {
			if item != nil {
				fz.assignTo(item, v, e, m)
			}
		}
	case *ast.ArrayLit:
		for _, item := range t.Items {
			fz.assignTo(item.Value, v, e, m)
		}
	}
}

// ---------------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------------

// sanitizerValue builds the sanitized result of a plain call: clean, tagged
// with the sanitizer name plus every argument's sanitizer tags, each name
// once (per lane).
// Lanes that agree on every argument share one built value.
func (fz *Fused) sanitizerValue(name string, args []fval, m laneMask) fval {
	build := func(l int) tval {
		var arg *pnode
		for _, av := range args {
			switch p := av.get(l).p; {
			case p == nil:
			case arg == nil:
				arg = p
			default:
				arg = pair(pCat, arg, p)
			}
		}
		return fz.sanVal(name, arg)
	}
	parts := []laneMask{m}
	for _, av := range args {
		parts = refineSegs(parts, av)
	}
	if len(parts) == 1 {
		return fuseUniform(build(m.first()), m)
	}
	b := fvalParts{act: m}
	for _, p := range parts {
		b.addV(p, build(p.first()))
	}
	return b.finish()
}

// sanVal is the clean result of sanitizer name applied to arguments whose
// histories are arg (nil when no argument has one). A clean value's history
// holds sanitizer names only, so which node carries them never shows (see
// cat), and a sanitizer over arguments without sanitizer names takes the
// pass's one node for its name.
func (fz *Fused) sanVal(name string, arg *pnode) tval {
	if arg != nil && arg.hasSan {
		return tval{p: &pnode{kind: pSan, hasSan: true, a: arg, name: name}}
	}
	n := fz.bareSans[name]
	if n == nil {
		if fz.bareSans == nil {
			fz.bareSans = make(map[string]*pnode)
		}
		n = &pnode{kind: pSan, hasSan: true, name: name}
		fz.bareSans[name] = n
	}
	return tval{p: n}
}

// checkSinks runs each masked lane's sink matcher over the call, with the
// lane's sinks of the call's name from ent. Lanes agreeing on every
// argument share one []tval.
func (fz *Fused) checkSinks(m laneMask, ent *entry, name string, method bool, recv string, ins *ir.Instr, args []fval, fr *fframe) {
	var pos token.Position
	parts := []laneMask{m}
	for _, av := range args {
		parts = refineSegs(parts, av)
	}
	for _, p := range parts {
		av := make([]tval, len(args))
		l0 := p.first()
		tainted := false
		for i, a := range args {
			av[i] = a.get(l0)
			tainted = tainted || av[i].Tainted
		}
		if !tainted {
			continue // only tainted arguments are ever reported
		}
		if !pos.IsValid() {
			pos = fr.at(ins.Node)
		}
		p.forEach(func(l int) {
			fz.lanes[l].checkCallSinks(ent.sinks[l], name, method, recv, ins.Node, ins.CallArgs(), av, pos)
		})
	}
}

// callArgs reads a call's argument registers into buf, which a caller
// keeps on its stack for the usual short argument list.
func callArgs(ins *ir.Instr, fr *fframe, buf []fval) []fval {
	for _, r := range ins.Args {
		buf = append(buf, fr.val(r))
	}
	return buf
}

func (fz *Fused) runCall(ins *ir.Instr, fr *fframe) fval {
	name := ins.Name
	ent := fz.tab.lookup(name)
	var buf [6]fval
	args := callArgs(ins, fr, buf[:0])
	e := fr.env
	b := fvalParts{act: fr.act}
	rem := fr.act

	if sm := ent.roles[Sanitizer].and(rem); !sm.empty() {
		b.addF(sm, fz.sanitizerValue(name, args, sm))
		rem = rem.andNot(sm)
		if rem.empty() {
			return b.finish()
		}
	}
	if em := ent.roles[EntryFunc].and(rem); !em.empty() {
		b.addF(em, fuseUniform(entryVal(ins, fr.lines), em))
		rem = rem.andNot(em)
		if rem.empty() {
			return b.finish()
		}
	}
	if km := ent.roles[FuncSink].and(rem); !km.empty() {
		fz.checkSinks(km, ent, name, false, "", ins, args, fr)
	}
	if propagatesTaint(name) {
		v := fz.fmergeAll(args, rem)
		b.addF(rem, fz.withStep(v, rem, fr, ins, pCallStep, ""))
		return b.finish()
	}
	switch name {
	case "preg_match", "preg_match_all":
		if argExprs := ins.CallArgs(); len(argExprs) >= 3 && len(args) >= 2 {
			fz.assignTo(argExprs[2], args[1], e, rem)
		}
		b.addF(rem, fval{})
		return b.finish()
	case "parse_str":
		if argExprs := ins.CallArgs(); len(argExprs) >= 2 && len(args) >= 1 {
			fz.assignTo(argExprs[1], args[0], e, rem)
		}
		b.addF(rem, fval{})
		return b.finish()
	case "extract":
		b.addF(rem, fval{})
		return b.finish()
	case "settype":
		if argExprs := ins.CallArgs(); len(argExprs) >= 1 {
			fz.assignTo(argExprs[0], fval{}, e, rem)
		}
		b.addF(rem, fval{})
		return b.finish()
	}
	if fn := fz.resolveFunc(name, rem); fn != nil && fn.Body != nil && !fz.disableInlining {
		b.addF(rem, fz.inline(fn, ins, args, fr, rem))
		return b.finish()
	}
	b.addF(rem, fval{})
	return b.finish()
}

func (fz *Fused) runMethodCall(ins *ir.Instr, fr *fframe) fval {
	recv := fr.val(ins.A)
	name := ins.Name // lower-cased at lowering time
	ent := fz.tab.lookup(name)
	var buf [6]fval
	args := callArgs(ins, fr, buf[:0])
	b := fvalParts{act: fr.act}
	rem := fr.act

	if sm := ent.roles[SanitizerMethod].and(rem); !sm.empty() {
		b.addF(sm, fuseUniform(fz.sanVal(name, nil), sm))
		rem = rem.andNot(sm)
		if rem.empty() {
			return b.finish()
		}
	}
	if km := ent.roles[MethodSink].and(rem); !km.empty() {
		fz.checkSinks(km, ent, name, true, ins.Key, ins, args, fr)
	}
	if m := fz.resolveMethod(name, rem); m != nil && m.Body != nil && !fz.disableInlining {
		b.addF(rem, fz.inline(m, ins, args, fr, rem))
		return b.finish()
	}
	b.addF(rem, fz.fmerge(recv, fz.fmergeAll(args, rem), rem))
	return b.finish()
}

func (fz *Fused) runStaticCall(ins *ir.Instr, fr *fframe) fval {
	name := strings.ToLower(ins.Name)
	ent := fz.tab.lookup(name)
	var buf [6]fval
	args := callArgs(ins, fr, buf[:0])
	b := fvalParts{act: fr.act}
	rem := fr.act

	if sm := ent.roles[SanitizerMethod].and(rem); !sm.empty() {
		b.addF(sm, fuseUniform(fz.sanVal(name, nil), sm))
		rem = rem.andNot(sm)
		if rem.empty() {
			return b.finish()
		}
	}
	if km := ent.roles[MethodSink].and(rem); !km.empty() {
		fz.checkSinks(km, ent, name, true, strings.ToLower(ins.Key), ins, args, fr)
	}
	// Resolved static methods inline regardless of the DisableInlining
	// ablation.
	if m := fz.resolveStatic(ins.Key, ins.Name, rem); m != nil && m.Body != nil {
		b.addF(rem, fz.inline(m, ins, args, fr, rem))
		return b.finish()
	}
	b.addF(rem, fz.fmergeAll(args, rem))
	return b.finish()
}

func (fz *Fused) runClosure(ins *ir.Instr, fr *fframe) {
	cf := ins.Closure
	inner := newFenv()
	for _, u := range cf.Uses {
		fz.envSet(inner, u, fz.envGet(fr.env, u, fr.act), fr.act)
	}
	for _, prm := range cf.Params {
		fz.envSet(inner, prm.Name, fval{}, fr.act)
	}
	cfr := fz.newFrame(cf, fr.act)
	cfr.env = inner
	fz.runRegion(cf.Body, cfr)
	fz.releaseFrame(cfr)
}

// ---------------------------------------------------------------------------
// Resolution (shared lookup, per-lane fill bookkeeping)
// ---------------------------------------------------------------------------

func (fz *Fused) resolveFunc(name string, m laneMask) *ast.FunctionDecl {
	m.forEach(func(l int) { fz.lanes[l].noteResolution(name) })
	if fz.astFile != nil {
		if fn, ok := fz.astFile.Funcs[name]; ok && fn.Class == nil {
			return fn
		}
	}
	if fz.resolver != nil {
		return fz.resolver.ResolveFunc(name)
	}
	return nil
}

func (fz *Fused) resolveMethod(name string, m laneMask) *ast.FunctionDecl {
	m.forEach(func(l int) { fz.lanes[l].noteResolution(name) })
	if fz.astFile != nil {
		for _, cls := range fz.astFile.Classes {
			for _, mm := range cls.Methods {
				if strings.ToLower(mm.Name) == name {
					return mm
				}
			}
		}
	}
	if fz.resolver != nil {
		return fz.resolver.ResolveMethod(name)
	}
	return nil
}

func (fz *Fused) resolveStatic(class, name string, m laneMask) *ast.FunctionDecl {
	m.forEach(func(l int) {
		if a := fz.lanes[l]; a.fill != nil {
			a.fill.impure = true
		}
	})
	key := strings.ToLower(class) + "::" + strings.ToLower(name)
	if fz.astFile != nil {
		if fn, ok := fz.astFile.Funcs[key]; ok {
			return fn
		}
	}
	return fz.resolveMethod(strings.ToLower(name), m)
}

// ---------------------------------------------------------------------------
// Inlining
// ---------------------------------------------------------------------------

// shareEligible reports whether lane l's call may consult or fill the
// shared cache: top-level context, shared cache configured, and every
// argument free of caller-specific content.
func (fz *Fused) shareEligible(a *Analyzer, args []fval, l int) bool {
	if a.cfg.Shared == nil || a.depth != 0 || len(a.analyzing) != 0 || a.fill != nil {
		return false
	}
	for _, v := range args {
		if !zeroValue(v.get(l)) {
			return false
		}
	}
	return true
}

// fenvLane reads one lane's binding from a fused environment.
func fenvLane(e *fenv, name string, l int) tval {
	if c, ok := e.vars[name]; ok && c.present.has(l) {
		return c.v.get(l)
	}
	return tval{}
}

// consumeShared replays committed entry se at a call site for lane l:
// report the body's candidates (through the per-task dedup filter, with the
// candidate file rewritten to the consumer's), re-apply by-ref effects to
// the caller environment, charge the fill's steps, and install the summary
// into the lane's memo so later calls behave exactly like memo hits.
func (fz *Fused) consumeShared(a *Analyzer, l int, se *sharedEntry, memoKey string, argExprs []ast.Expr, caller *fenv) tval {
	a.sharedHits++
	a.steps += se.steps
	for _, c := range se.cands {
		cc := *c
		cc.File = a.fileName()
		a.record(&cc)
	}
	lm := oneLane(l)
	for _, br := range se.byref {
		if br.idx < len(argExprs) {
			bv := fval{uni: br.val}
			if br.val.Tainted {
				bv.mask = lm
			}
			fz.assignTo(argExprs[br.idx], bv, caller, lm)
		}
	}
	a.summaries[memoKey] = &summary{returnValue: se.ret}
	return se.ret
}

// finishFill closes lane a's active fill frame, publishing a pending entry
// when the fill stayed pure; by-ref out-values are read from the callee
// environment. (A lane that exhausted its budget mid-fill had the frame
// dropped when it froze.)
func (fz *Fused) finishFill(a *Analyzer, l int, ret tval, fn *ast.FunctionDecl, inner *fenv) {
	fr := a.fill
	a.fill = nil
	if fr == nil || fr.impure {
		return
	}
	e := &sharedEntry{ret: ret, cands: fr.cands, steps: a.steps - fr.stepsStart}
	for i, p := range fn.Params {
		if p.ByRef {
			e.byref = append(e.byref, byrefOut{idx: i, val: fenvLane(inner, p.Name, l)})
		}
	}
	a.pending = append(a.pending, PendingSummary{Key: fr.key, entry: e})
}

// inline applies a user function at call site ins of the calling frame fr
// for the lanes in rem. Memoized and shared summaries resolve per lane; the
// lanes left over run the callee body together under a narrowed mask — one
// body evaluation no matter how many lanes missed.
func (fz *Fused) inline(fn *ast.FunctionDecl, ins *ir.Instr, args []fval, fr *fframe, rem laneMask) fval {
	argExprs, caller := ins.CallArgs(), fr.env
	// Depth, recursion and call-stack state are lockstep across a frame's
	// lanes (they entered the same chain of bodies), so one representative
	// decides the guard for all.
	rep := fz.lanes[rem.first()]
	if rep.depth >= maxCallDepth || rep.analyzing[fn] {
		return fz.fmergeAll(args, rem)
	}

	b := fvalParts{act: rem}

	// Lanes that agree on every argument share one memo key: the key is
	// computed once per argument-equal lane group, not once per lane.
	argParts := []laneMask{rem}
	for _, v := range args {
		argParts = refineSegs(argParts, v)
	}
	partKeys := make([]string, len(argParts))
	laneKey := func(l int) string {
		for i, p := range argParts {
			if p.has(l) {
				if partKeys[i] == "" {
					vals := make([]tval, len(args))
					for j, v := range args {
						vals[j] = v.get(l)
					}
					partKeys[i] = fz.mat.memoKey(fn, vals)
				}
				return partKeys[i]
			}
		}
		return "" // unreachable: argParts partition rem
	}
	retStep := func(v tval) tval {
		if v.Tainted {
			v = v.step(pReturn, fn.Name, ins, fr.lines)
		}
		return v
	}

	var hitM laneMask
	rem.forEach(func(l int) {
		a := fz.lanes[l]
		if s, ok := a.summaries[laneKey(l)]; ok {
			if a.fill != nil && s.fillID != a.fill.id {
				a.fill.impure = true
			}
			a.transferHits++
			b.addV(oneLane(l), retStep(s.returnValue))
			hitM = hitM.with(l)
		}
	})
	rem2 := rem.andNot(hitM)
	if rem2.empty() {
		return b.finish()
	}

	// Shared-cache consultation reads exact per-lane step counts.
	fz.flush()
	var sharedM, fillM laneMask
	rem2.forEach(func(l int) {
		a := fz.lanes[l]
		if !fz.shareEligible(a, args, l) {
			return
		}
		sk := SummaryKey{Class: a.class.ID, Fn: fn, NArgs: len(args)}
		if se := a.sharedLookup(sk); se != nil {
			a.transferHits++
			b.addV(oneLane(l), retStep(fz.consumeShared(a, l, se, laneKey(l), argExprs, caller)))
			sharedM = sharedM.with(l)
			return
		}
		a.sharedMisses++
		a.fillSeq++
		a.fill = &fillFrame{key: sk, id: a.fillSeq, stepsStart: a.steps}
		fillM = fillM.with(l)
	})
	fz.syncBase() // shared replays charged per-lane steps

	missM := rem2.andNot(sharedM)
	if missM.empty() {
		return b.finish()
	}

	cf := fz.prov.funcFor(fn)

	prevMask := fz.ctxMask
	prevFunc := fz.lanes[missM.first()].curFunc
	missM.forEach(func(l int) {
		a := fz.lanes[l]
		a.depth++
		a.analyzing[fn] = true
		a.curFunc = fn.Name
	})

	inner := newFenv()
	cfr := fz.newFrame(cf, missM)
	cfr.env = inner
	fz.setMask(missM)
	for i, prm := range cf.Params {
		switch {
		case i < len(args):
			fz.envSet(inner, prm.Name, args[i], missM)
		case prm.Default != nil:
			fz.envSet(inner, prm.Name, fz.runBlockValue(prm.Default, cfr), missM)
		default:
			fz.envSet(inner, prm.Name, fval{}, missM)
		}
	}
	fz.runRegion(cf.Body, cfr)
	ret := cfr.ret

	// Propagate by-ref parameter taint back to caller arguments.
	for i, prm := range cf.Params {
		if prm.ByRef && i < len(argExprs) {
			fz.assignTo(argExprs[i], fz.envGet(inner, prm.Name, missM), caller, missM)
		}
	}

	missM.forEach(func(l int) {
		a := fz.lanes[l]
		a.curFunc = prevFunc
		delete(a.analyzing, fn)
		a.depth--
	})
	fz.setMask(prevMask) // flushes body steps into missM lanes

	// Per-lane memo install and fill completion for the lanes that finished
	// the body (a lane that froze inside it is out of the pass); lanes
	// sharing a return group share one return step (a uniform return over
	// the whole call collapses to a single uniform cell).
	missM.and(fz.live).forEach(func(l int) {
		a := fz.lanes[l]
		rv := ret.get(l)
		entry := &summary{returnValue: rv}
		if a.fill != nil {
			entry.fillID = a.fill.id
		}
		a.summaries[laneKey(l)] = entry
		if fillM.has(l) {
			fz.finishFill(a, l, rv, fn, inner)
		}
	})
	if ret.uniform() && missM.eq(rem) {
		b.addF(rem, fuseUniform(retStep(ret.uni), rem))
	} else {
		ret.forEachSeg(missM, func(g laneMask, rv tval) {
			b.addV(g, retStep(rv))
		})
	}
	fz.releaseFrame(cfr)
	return b.finish()
}
