package taint

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/vuln"
)

// doublingProgram reads one raw and one sanitized entry point into $a and
// then doubles $a by self-concatenation n times before echoing it.
func doublingProgram(n int) string {
	var b strings.Builder
	b.WriteString("<?php\n$a = $_GET['x'] . htmlspecialchars($_GET['y']);\n")
	for i := 0; i < n; i++ {
		b.WriteString("$a = $a . $a;\n")
	}
	b.WriteString("echo $a;\n")
	return b.String()
}

// TestConcatDoublingStaysLinear pins that concatenation treats sanitizer
// names as a set: a value concatenated with itself must not double its
// list, or n doublings cost 2^n names and as much time.
func TestConcatDoublingStaysLinear(t *testing.T) {
	start := time.Now()
	cands := analyze(t, vuln.XSSR, doublingProgram(64))
	if d := time.Since(start); d > time.Second {
		t.Errorf("64 doublings took %v, bound 1s", d)
	}
	wantCount(t, cands, 1)
	if got := cands[0].Value.Sanitizers; len(got) != 1 || got[0] != "htmlspecialchars" {
		n := len(got)
		if n > 4 {
			got = got[:4]
		}
		t.Errorf("finding lists %d sanitizer names %q..., want [htmlspecialchars]", n, got)
	}
}

// TestLongHistoryMaterializes pins that the materializer walks a history
// without recursion: 20k straight-line statements, alternating a
// concatenation with an entry point and one with a sanitized copy of the
// value itself, build a node graph 20k concatenations deep that the sink
// materializes within the caps.
func TestLongHistoryMaterializes(t *testing.T) {
	const n = 20_000
	var b strings.Builder
	b.WriteString("<?php\n")
	for i := 0; i < n/2; i++ {
		b.WriteString("$a = $a . $_GET['x'];\n$a = $a . htmlspecialchars($a);\n")
	}
	b.WriteString("echo $a;\n")
	cands := analyze(t, vuln.XSSR, b.String())
	wantCount(t, cands, 1)
	v := cands[0].Value
	if len(v.Sources) != maxSources || len(v.Trace) != maxTraceSteps {
		t.Errorf("%d sources and %d steps, want the caps %d and %d", len(v.Sources), len(v.Trace), maxSources, maxTraceSteps)
	}
	if fmt.Sprint(v.Sanitizers) != "[htmlspecialchars]" {
		t.Errorf("sanitizers %q, want [htmlspecialchars]", v.Sanitizers)
	}
}

// TestTraceStepsDoNotAlias pins that two values stepped from one stored
// value keep their own traces: $c's finding lists the assignment to $c,
// not the later one to $d that was stepped from the same $b.
func TestTraceStepsDoNotAlias(t *testing.T) {
	cands := analyze(t, vuln.XSSR, "<?php\n$a = $_GET['x'];\n$b = $a;\n$c = $b;\n$d = $b;\necho $c;\n")
	wantCount(t, cands, 1)
	var lines []int
	for _, st := range cands[0].Value.Trace {
		lines = append(lines, st.Pos.Line)
	}
	if want := []int{2, 2, 3, 4}; fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Errorf("trace lines %v, want %v: %s", lines, want, candDetail(cands[0]))
	}
}

// fuzzVars, fuzzSans and fuzzSinks are what FuzzTaintValues programs are
// built from.
var (
	fuzzVars  = []string{"$a", "$b", "$c"}
	fuzzSans  = []string{"htmlspecialchars", "mysql_real_escape_string", "intval", "escapeshellarg", "addslashes"}
	fuzzSinks = []string{"echo %s;", "mysql_query(%s);", "system(%s);", "include(%s);"}
)

// fuzzProgram builds a PHP program from data: after the sanitized read of
// the doubling program, each byte is one statement over three variables —
// a concatenation, a sanitizer call, an if/else join, a user-function call,
// an entry-point read, an append or a sink — and every variable reaches
// every sink at the end.
func fuzzProgram(data []byte) string {
	var b strings.Builder
	b.WriteString(`<?php
function wrap($p) { return "[" . $p . "]"; }
function pick($p, $q) { if ($p) { return htmlspecialchars($q); } return $p . $q; }
$a = $_GET['x'] . htmlspecialchars($_GET['y']);
$b = $_POST['b'];
$c = "k";
`)
	if len(data) > 256 {
		data = data[:256]
	}
	for i, op := range data {
		x, y, z := fuzzVars[op%3], fuzzVars[(op>>2)%3], fuzzVars[(int(op)+i)%3]
		switch (op >> 4) % 8 {
		case 0:
			fmt.Fprintf(&b, "%s = %s . %s;\n", x, y, z)
		case 1:
			fmt.Fprintf(&b, "%s = %s(%s);\n", x, fuzzSans[(int(op)+i)%len(fuzzSans)], y)
		case 2:
			fmt.Fprintf(&b, "if (%s) { %s = %s; } else { %s = %s; }\n", z, x, y, x, z)
		case 3:
			fmt.Fprintf(&b, "%s = wrap(%s);\n", x, y)
		case 4:
			fmt.Fprintf(&b, "%s = pick(%s, %s);\n", x, y, z)
		case 5:
			fmt.Fprintf(&b, "%s = $_GET['k%d'];\n", x, i%4)
		case 6:
			fmt.Fprintf(&b, "%s .= %s;\n", x, y)
		case 7:
			fmt.Fprintf(&b, fuzzSinks[(int(op)+i)%len(fuzzSinks)]+"\n", x)
		}
	}
	for _, v := range fuzzVars {
		for _, s := range fuzzSinks {
			fmt.Fprintf(&b, s+"\n", v)
		}
	}
	return b.String()
}

// FuzzTaintValues checks the provenance every finding carries, on programs
// that concatenate, sanitize, join and call over three variables: at most
// 16 sources and 64 steps, distinct sanitizer names that the program
// calls, and every lane of a fused pass equal to its one-lane pass.
func FuzzTaintValues(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0x00}, 64)) // $a = $a . $a; — the doubling program
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x07, 0x18, 0x29})
	f.Add([]byte("provenance on demand"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzProgram(data)
		p := parseSrc(t, src)
		classes := vuln.All()
		cfgs := make([]Config, len(classes))
		for i, cls := range classes {
			cfgs[i] = Config{Class: cls}
		}
		fz := NewFused(cfgs)
		fz.FileIR(p.f, p.fir, nil)
		for i, cls := range classes {
			for _, c := range fz.Candidates(i) {
				v := c.Value
				if len(v.Sources) > maxSources || len(v.Trace) > maxTraceSteps {
					t.Fatalf("[%s] %d sources, %d steps: %s", cls.ID, len(v.Sources), len(v.Trace), candDetail(c))
				}
				seen := map[string]bool{}
				for _, s := range v.Sanitizers {
					if seen[s] || !strings.Contains(src, s+"(") {
						t.Fatalf("[%s] sanitizer %q repeated or never called: %s", cls.ID, s, candDetail(c))
					}
					seen[s] = true
				}
			}
			one := NewFused([]Config{cfgs[i]})
			one.FileIR(p.f, p.fir, nil)
			if want, got := laneState(one, 0), laneState(fz, i); want.String() != got.String() {
				t.Fatalf("[%s] lane diverges from its one-lane pass:\none-lane:\n  %s\nfused:\n  %s\nprogram:\n%s", cls.ID, want, got, src)
			}
		}
	})
}
