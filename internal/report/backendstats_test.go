package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/resultstore"
)

func backendStats() *core.ScanStats {
	s := sampleStats()
	s.Backend = &resultstore.BackendState{
		Kind: "http", Hits: 3, Misses: 2, Degraded: 4, Corrupt: 1,
		Queued: 6, Written: 4, Shed: 1, Superseded: 1,
		QueueDepth: 1, QueueCap: 32,
		Envelope: &resultstore.EnvelopeState{
			Breaker: breaker.Open, Refused: 7, Retries: 9,
		},
	}
	return s
}

// TestBackendStatsInRenderers pins the backend account's surface in all
// three renderers — and its complete absence when the scan ran without a
// pluggable tier, so legacy output is byte-for-byte unaffected.
func TestBackendStatsInRenderers(t *testing.T) {
	text := RenderStats(backendStats())
	for _, want := range []string{
		"backend (http): 3 hits, 2 misses, 4 degraded, 1 corrupt",
		"write-behind 1/32 queued, 4 written, 1 shed",
		"breaker open (7 refused, 9 retries)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("stats text missing %q in:\n%s", want, text)
		}
	}

	rep := &core.Report{
		Project: core.LoadMap("s", map[string]string{"a.php": `<?php echo 1;`}),
		Mode:    core.ModeWAPe, Stats: backendStats(),
	}
	js := ToJSON(rep)
	if js.Stats.Backend == nil || js.Stats.Backend.Kind != "http" ||
		js.Stats.Backend.Envelope == nil || js.Stats.Backend.Envelope.Breaker != breaker.Open {
		t.Errorf("JSON backend account = %+v", js.Stats.Backend)
	}

	var buf bytes.Buffer
	if err := WriteHTML(&buf, rep); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	if !strings.Contains(html, "backend (http): 3 hits, 2 misses, 4 degraded, 1 corrupt") ||
		!strings.Contains(html, "breaker open (7 refused, 9 retries)") {
		t.Error("HTML report missing the backend summary line")
	}

	// No pluggable tier → no backend line anywhere.
	rep.Stats = sampleStats()
	if strings.Contains(RenderStats(rep.Stats), "backend (") {
		t.Error("stats text renders a backend line without a backend")
	}
	if js := ToJSON(rep); js.Stats.Backend != nil {
		t.Error("ToJSON fabricated a backend account")
	}
	buf.Reset()
	if err := WriteHTML(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "backend (") {
		t.Error("HTML renders a backend line without a backend")
	}
}
