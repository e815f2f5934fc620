package ir

import (
	"fmt"
	"strings"

	"repro/internal/php/token"
)

// Dump renders the lowered file as deterministic text: function headers,
// the region tree and every block's instruction listing. Two lowerings
// of the same AST produce byte-identical dumps; no map order or pointer
// value leaks into the output.
func Dump(f *File) string {
	var b strings.Builder
	fmt.Fprintf(&b, "file %s visited=%d skipped=%d\n", f.Name, f.Visited, f.Skipped)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "degraded %s at %d:%d nodes=%d\n", n.Reason, n.Pos.Line, n.Pos.Column, n.Nodes)
	}
	dumpFunc(&b, f.Top, "top", 0)
	for _, fn := range f.Funcs {
		dumpFunc(&b, fn, "func "+fn.Name, 0)
	}
	return b.String()
}

func dumpFunc(b *strings.Builder, fn *Func, label string, depth int) {
	ind := strings.Repeat("  ", depth)
	at := fn.Lines.Position(fn.Pos)
	fmt.Fprintf(b, "%s%s regs=%d blocks=%d at %d:%d\n",
		ind, label, fn.NumRegs, len(fn.Blocks), at.Line, at.Column)
	for i, p := range fn.Params {
		fmt.Fprintf(b, "%s  param %d %s byref=%v", ind, i, p.Name, p.ByRef)
		if p.Default != nil {
			fmt.Fprintf(b, " default=b%d", p.Default.ID)
		}
		b.WriteByte('\n')
	}
	for _, u := range fn.Uses {
		fmt.Fprintf(b, "%s  use %s\n", ind, u)
	}
	dumpRegion(b, fn.Body, depth+1)
	for _, blk := range fn.Blocks {
		dumpBlock(b, blk, fn.Lines, depth+1)
	}
}

func dumpRegion(b *strings.Builder, r *Region, depth int) {
	if r == nil {
		return
	}
	ind := strings.Repeat("  ", depth)
	switch r.Kind {
	case RBasic:
		fmt.Fprintf(b, "%sbasic b%d\n", ind, r.Blk.ID)
	case RSeq:
		fmt.Fprintf(b, "%sseq\n", ind)
		for _, k := range r.Kids {
			dumpRegion(b, k, depth+1)
		}
	case RIf:
		fmt.Fprintf(b, "%sif\n", ind)
		dumpRegion(b, r.Then, depth+1)
		if r.Else != nil {
			fmt.Fprintf(b, "%selse\n", ind)
			dumpRegion(b, r.Else, depth+1)
		}
	case RLoop2:
		fmt.Fprintf(b, "%sloop2\n", ind)
		dumpRegion(b, r.Body, depth+1)
	case RForLoop:
		post := -1
		if r.Post != nil {
			post = r.Post.ID
		}
		fmt.Fprintf(b, "%sfor post=b%d\n", ind, post)
		dumpRegion(b, r.Body, depth+1)
	case RSwitch:
		fmt.Fprintf(b, "%sswitch default=%v\n", ind, r.HasDefault)
		for _, c := range r.Cases {
			if c.Cond != nil {
				fmt.Fprintf(b, "%s  case b%d\n", ind, c.Cond.ID)
			} else {
				fmt.Fprintf(b, "%s  default\n", ind)
			}
			dumpRegion(b, c.Body, depth+2)
		}
	}
}

func dumpBlock(b *strings.Builder, blk *Block, lines *token.LineTable, depth int) {
	ind := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%sb%d result=r%d\n", ind, blk.ID, blk.Result)
	for _, ins := range blk.Instrs {
		fmt.Fprintf(b, "%s  %s\n", ind, instrString(ins, lines))
	}
	for _, ins := range blk.Instrs {
		if ins.Closure != nil {
			dumpFunc(b, ins.Closure, "closure", depth+1)
		}
	}
}

// positioned marks the ops whose listing ends in the instruction's source
// position: the ones the evaluator reports positions for.
var positioned = [...]bool{
	OpLoadVar: true, OpIndex: true, OpConcat: true, OpInterp: true,
	OpAssign: true, OpCall: true, OpMethodCall: true, OpStaticCall: true,
	OpPseudoSink: true, OpNamedSink: true, OpReturn: true,
}

func instrString(ins Instr, lines *token.LineTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "r%d = %s", ins.Dst, ins.Op)
	if ins.Name != "" {
		fmt.Fprintf(&b, " %q", ins.Name)
	}
	if ins.Key != "" {
		fmt.Fprintf(&b, " key=%q", ins.Key)
	}
	if ins.A != 0 {
		fmt.Fprintf(&b, " a=r%d", ins.A)
	}
	if ins.B != 0 && ins.Op != OpPseudoSink {
		fmt.Fprintf(&b, " b=r%d", ins.B)
	}
	if len(ins.Args) > 0 {
		parts := make([]string, len(ins.Args))
		for i, r := range ins.Args {
			parts[i] = fmt.Sprintf("r%d", r)
		}
		fmt.Fprintf(&b, " args=[%s]", strings.Join(parts, " "))
	}
	if ins.Op == OpAssign {
		fmt.Fprintf(&b, " kind=%d", ins.AKind)
	}
	if ins.LV != nil {
		fmt.Fprintf(&b, " lv=%s", lvString(ins.LV))
	}
	if ins.XBlk != nil {
		fmt.Fprintf(&b, " x=b%d", ins.XBlk.ID)
	}
	if ins.IBlk != nil {
		fmt.Fprintf(&b, " i=b%d", ins.IBlk.ID)
	}
	if positioned[ins.Op] && ins.Node != nil {
		if at := lines.Position(ins.Node.Pos()); at.Line != 0 {
			fmt.Fprintf(&b, " @%d:%d", at.Line, at.Column)
		}
	}
	return b.String()
}

func lvString(lv *LValue) string {
	switch lv.Kind {
	case LVNone:
		return "none"
	case LVVar:
		return fmt.Sprintf("var(%s)", lv.Name)
	case LVIndex:
		return fmt.Sprintf("index(%s)", lv.Name)
	case LVKey:
		if lv.Strong {
			return fmt.Sprintf("key!(%s)", lv.Name)
		}
		return fmt.Sprintf("key(%s)", lv.Name)
	case LVList:
		parts := make([]string, len(lv.Kids))
		for i, k := range lv.Kids {
			parts[i] = lvString(k)
		}
		return "list(" + strings.Join(parts, ",") + ")"
	}
	return "?"
}
