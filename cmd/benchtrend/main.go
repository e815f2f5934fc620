// Command benchtrend maintains the benchmark trajectory file
// (BENCH_analyze.json): a JSON-lines log with one entry per benchmark run,
// appended — never overwritten — so the performance history of the analyzer
// survives across runs and regressions are visible as a trend, not just a
// pair of numbers.
//
// Append mode (the default) reads `go test -bench` output on stdin, echoes
// it through unchanged, and appends one entry recording the ns/op — and, when
// the run used -benchmem, the B/op and allocs/op — of every benchmark in the
// run. With -count=N each benchmark's minimum across repetitions is recorded,
// so the gate compares the least scheduler-disturbed measurement instead of
// run-to-run jitter:
//
//	go test -run '^$' -bench . -benchmem -count=3 . | benchtrend -file BENCH_analyze.json
//
// Compare mode diffs the last two entries and exits non-zero when any
// benchmark got slower — or allocation-heavier — by more than -threshold
// (default 10%):
//
//	benchtrend -compare -file BENCH_analyze.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"time"
)

// entry is one line of the trajectory file.
type entry struct {
	// Date is RFC 3339 UTC.
	Date string `json:"date"`
	Go   string `json:"go"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to ns/op.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// BytesPerOp / AllocsPerOp record the -benchmem memory dimensions for
	// benchmarks that reported them. Absent on entries predating the schema.
	BytesPerOp  map[string]float64 `json:"bytes_op,omitempty"`
	AllocsPerOp map[string]float64 `json:"allocs_op,omitempty"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkAnalyzeApp-8   	     142	   8441385 ns/op	 2031 B/op	 12 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`)

// memLine extracts the -benchmem columns wherever they appear in the line
// (custom metrics such as MB/s or lines may sit between ns/op and B/op).
var (
	bytesCol  = regexp.MustCompile(`\s([\d.]+) B/op`)
	allocsCol = regexp.MustCompile(`\s([\d.]+) allocs/op`)
)

// benchRun holds every dimension parsed from one bench invocation.
type benchRun struct {
	ns     map[string]float64
	bytes  map[string]float64
	allocs map[string]float64
}

// parseBench scans bench output from r, echoing every line to echo, and
// returns the ns/op (plus B/op and allocs/op when present) per benchmark
// name. A benchmark that ran more than once (-count=N) keeps its minimum:
// the fastest repetition is the least scheduler-disturbed measurement of the
// code's actual cost, so gating on it compares signal, not jitter.
func parseBench(r io.Reader, echo io.Writer) (benchRun, error) {
	out := benchRun{
		ns:     make(map[string]float64),
		bytes:  make(map[string]float64),
		allocs: make(map[string]float64),
	}
	keepMin := func(m map[string]float64, name string, v float64) {
		if old, ok := m[name]; !ok || v < old {
			m[name] = v
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		var ns float64
		if _, err := fmt.Sscanf(m[2], "%g", &ns); err != nil {
			continue
		}
		keepMin(out.ns, name, ns)
		if bm := bytesCol.FindStringSubmatch(line); bm != nil {
			var v float64
			if _, err := fmt.Sscanf(bm[1], "%g", &v); err == nil {
				keepMin(out.bytes, name, v)
			}
		}
		if am := allocsCol.FindStringSubmatch(line); am != nil {
			var v float64
			if _, err := fmt.Sscanf(am[1], "%g", &v); err == nil {
				keepMin(out.allocs, name, v)
			}
		}
	}
	return out, sc.Err()
}

// appendEntry appends e as one JSON line to path.
func appendEntry(path string, e entry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(data, '\n'))
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// readTrajectory parses every valid entry line of path, silently skipping
// lines in other formats (the file predates the trajectory schema in old
// checkouts).
func readTrajectory(path string) ([]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []entry
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e entry
		if err := json.Unmarshal(line, &e); err != nil || len(e.Benchmarks) == 0 {
			continue
		}
		out = append(out, e)
	}
	return out, nil
}

// compareDim diffs one dimension (ns/op, B/op or allocs/op) of the last two
// entries, printing a delta line per benchmark and reporting whether any
// regressed beyond threshold (fractional, e.g. 0.10 = 10% worse). Benchmarks
// absent from the previous entry — new benchmarks, or entries predating the
// memory-dimension schema — are reported but never count as regressions.
func compareDim(unit string, prev, last map[string]float64, threshold float64, w io.Writer) (regressed bool) {
	names := make([]string, 0, len(last))
	for name := range last {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		now := last[name]
		old, ok := prev[name]
		if !ok {
			fmt.Fprintf(w, "  %-44s %12.0f %s  (new)\n", name, now, unit)
			continue
		}
		delta := 0.0
		if old > 0 {
			delta = (now - old) / old
		}
		mark := ""
		if delta > threshold {
			mark = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "  %-44s %12.0f %s  %+6.1f%%%s\n", name, now, unit, delta*100, mark)
	}
	return regressed
}

// compare prints the per-benchmark delta between the last two trajectory
// entries — time and, when recorded, memory dimensions — and reports whether
// any benchmark regressed beyond threshold.
func compare(entries []entry, threshold float64, w io.Writer) (regressed bool) {
	if len(entries) < 2 {
		fmt.Fprintf(w, "benchtrend: need at least two trajectory entries to compare (have %d)\n", len(entries))
		return false
	}
	prev, last := entries[len(entries)-2], entries[len(entries)-1]
	fmt.Fprintf(w, "comparing %s -> %s\n", prev.Date, last.Date)
	regressed = compareDim("ns/op", prev.Benchmarks, last.Benchmarks, threshold, w)
	if len(last.BytesPerOp) > 0 {
		fmt.Fprintln(w, "memory (B/op):")
		regressed = compareDim("B/op", prev.BytesPerOp, last.BytesPerOp, threshold, w) || regressed
	}
	if len(last.AllocsPerOp) > 0 {
		fmt.Fprintln(w, "allocations (allocs/op):")
		regressed = compareDim("allocs/op", prev.AllocsPerOp, last.AllocsPerOp, threshold, w) || regressed
	}
	// The incremental-scan acceptance ratio, when both sides are present.
	cold, okc := last.Benchmarks["BenchmarkAnalyzeAppIncrementalCold"]
	warm, okw := last.Benchmarks["BenchmarkAnalyzeAppIncremental"]
	if okc && okw && warm > 0 {
		fmt.Fprintf(w, "incremental speedup (cold/warm): %.1fx\n", cold/warm)
	}
	return regressed
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer, now func() time.Time) int {
	fs := flag.NewFlagSet("benchtrend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("file", "BENCH_analyze.json", "trajectory file (JSON lines)")
	doCompare := fs.Bool("compare", false, "compare the last two trajectory entries instead of appending")
	threshold := fs.Float64("threshold", 0.10, "fractional slowdown that counts as a regression in -compare")
	date := fs.String("date", "", "entry timestamp override (RFC 3339); defaults to now")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *doCompare {
		entries, err := readTrajectory(*file)
		if err != nil {
			fmt.Fprintf(stderr, "benchtrend: %v\n", err)
			return 2
		}
		if compare(entries, *threshold, stdout) {
			return 1
		}
		return 0
	}
	res, err := parseBench(stdin, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchtrend: read bench output: %v\n", err)
		return 2
	}
	if len(res.ns) == 0 {
		fmt.Fprintln(stderr, "benchtrend: no benchmark results on stdin; trajectory unchanged")
		return 2
	}
	when := *date
	if when == "" {
		when = now().UTC().Format(time.RFC3339)
	}
	e := entry{Date: when, Go: runtime.Version(), Benchmarks: res.ns}
	if len(res.bytes) > 0 {
		e.BytesPerOp = res.bytes
	}
	if len(res.allocs) > 0 {
		e.AllocsPerOp = res.allocs
	}
	if err := appendEntry(*file, e); err != nil {
		fmt.Fprintf(stderr, "benchtrend: append %s: %v\n", *file, err)
		return 2
	}
	fmt.Fprintf(stderr, "benchtrend: recorded %d benchmarks in %s\n", len(res.ns), *file)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr, time.Now))
}
