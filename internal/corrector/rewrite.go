package corrector

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/taint"
)

// Correction describes one applied fix.
type Correction struct {
	FixID string
	// Line is the sink line the fix was inserted at.
	Line int
	// Before and After are the rewritten source fragment.
	Before string
	After  string
}

// Corrector rewrites source files, wrapping tainted sink arguments in fix
// calls and appending the fix definitions (the code fixing sub-module of
// Section III-C).
type Corrector struct {
	fixes map[string]*Fix
}

// New returns a corrector using the built-in fix library.
func New() *Corrector {
	return &Corrector{fixes: Library()}
}

// Register adds or replaces a fix (used when weapons supply new fixes).
func (c *Corrector) Register(f *Fix) {
	if c.fixes == nil {
		c.fixes = make(map[string]*Fix)
	}
	c.fixes[f.ID] = f
}

// Fix returns a fix by ID, or nil.
func (c *Corrector) Fix(id string) *Fix { return c.fixes[id] }

// edit is a pending text replacement within a file.
type edit struct {
	start, end int // byte offsets
	text       string
}

// Apply rewrites src, fixing each candidate with the fix registered for
// fixID(candidate). It returns the corrected source and the list of applied
// corrections. Candidates whose positions cannot be resolved are skipped
// with an error entry; that includes expressions re-parsed from a braced
// string interpolation, whose positions lie past the end of the source.
func (c *Corrector) Apply(src string, cands []*taint.Candidate, fixID func(*taint.Candidate) string) (string, []Correction, error) {
	var edits []edit
	var corrections []Correction
	needed := make(map[string]*Fix)

	for _, cand := range cands {
		id := fixID(cand)
		fx := c.fixes[id]
		if fx == nil {
			return "", nil, fmt.Errorf("corrector: no fix registered for %q", id)
		}
		if cand.TaintedExpr == nil {
			continue
		}
		start := int(cand.TaintedExpr.Pos())
		end := int(cand.TaintedExpr.End())
		if start < 0 || end > len(src) || start >= end {
			continue
		}
		argText := src[start:end]
		if strings.HasPrefix(argText, fx.ID+"(") {
			continue // already fixed
		}
		wrapped := fx.ID + "(" + argText + ")"
		edits = append(edits, edit{start: start, end: end, text: wrapped})
		needed[fx.ID] = fx
		corrections = append(corrections, Correction{
			FixID:  fx.ID,
			Line:   cand.SinkPos.Line,
			Before: argText,
			After:  wrapped,
		})
	}
	if len(edits) == 0 {
		return src, nil, nil
	}

	out, err := applyEdits(src, edits)
	if err != nil {
		return "", nil, err
	}

	// Append the fix definitions once per file, guarded so repeated fixing
	// stays idempotent.
	var defs []string
	for id := range needed {
		defs = append(defs, id)
	}
	sort.Strings(defs)
	var b strings.Builder
	b.WriteString(out)
	// If the file ends inside a PHP region the definitions are appended as
	// plain code; otherwise a fresh <?php block is opened.
	openTag, closeTag := "\n", "\n"
	if !endsInPHP(src) {
		openTag, closeTag = "\n<?php\n", "\n?>\n"
	}
	for _, id := range defs {
		if strings.Contains(src, "function "+id+"(") {
			continue
		}
		b.WriteString(openTag)
		b.WriteString("// --- WAP fix (auto-inserted) ---\nif (!function_exists('")
		b.WriteString(id)
		b.WriteString("')) {\n")
		b.WriteString(needed[id].Def)
		b.WriteString("\n}")
		b.WriteString(closeTag)
	}
	return b.String(), corrections, nil
}

// endsInPHP reports whether the source's final bytes are inside a PHP
// region (open tag without a matching close tag after it).
func endsInPHP(src string) bool {
	lastOpen := strings.LastIndex(src, "<?")
	if lastOpen < 0 {
		return false
	}
	lastClose := strings.LastIndex(src, "?>")
	return lastClose < lastOpen
}

// applyEdits performs non-overlapping replacements right-to-left. Nested
// edits (an argument inside an already-wrapped argument) are dropped in
// favour of the outermost edit.
func applyEdits(src string, edits []edit) (string, error) {
	sort.Slice(edits, func(i, j int) bool {
		if edits[i].start != edits[j].start {
			return edits[i].start < edits[j].start
		}
		return edits[i].end > edits[j].end
	})
	// Drop contained or duplicate edits.
	kept := edits[:0]
	lastEnd := -1
	for _, e := range edits {
		if e.start < lastEnd {
			continue
		}
		kept = append(kept, e)
		lastEnd = e.end
	}
	var b strings.Builder
	b.Grow(len(src) + len(kept)*16)
	prev := 0
	for _, e := range kept {
		if e.start < prev || e.end > len(src) {
			return "", fmt.Errorf("corrector: edit out of bounds [%d,%d)", e.start, e.end)
		}
		b.WriteString(src[prev:e.start])
		b.WriteString(e.text)
		prev = e.end
	}
	b.WriteString(src[prev:])
	return b.String(), nil
}
