package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/corrector"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

// TestDryRunBuiltinSpecs: every bundled weapon spec must pass its own
// dry-run — the proof-app gate that rejects uploaded weapons must accept
// the weapons we ship.
func TestDryRunBuiltinSpecs(t *testing.T) {
	weapons, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, Options{Mode: ModeWAPe, Seed: 1, Weapons: weapons})
	for _, w := range weapons {
		if err := e.DryRunWeapon(context.Background(), w); err != nil {
			t.Errorf("builtin weapon %s fails its own dry-run: %v", w.Class.ID, err)
		}
	}
}

// TestDryRunRepoWeaponFiles: the example spec files shipped in weapons/
// must pass the same gate (make weapons-gate runs this end to end).
func TestDryRunRepoWeaponFiles(t *testing.T) {
	dir := filepath.Join("..", "..", "weapons")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no weapons dir: %v", err)
	}
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".weapon") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := weapon.ParseSpec(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		w, err := weapon.Generate(*spec)
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		e := newEngine(t, Options{Mode: ModeWAPe, Seed: 1, Weapons: []*weapon.Weapon{w}})
		if err := e.DryRunWeapon(context.Background(), w); err != nil {
			t.Errorf("%s fails dry-run: %v", ent.Name(), err)
		}
	}
}

// TestDryRunRejectsBrokenSpec: a weapon whose sanitizer neutralizes its
// own sinks (so the planted vulnerable flow is never reported) must be
// rejected with a diagnostic naming the missed flow.
func TestDryRunRejectsBrokenSpec(t *testing.T) {
	// The sanitizer list contains the sink itself: every flow into the
	// sink is considered sanitized, so the planted vulnerability cannot
	// be detected.
	w, err := weapon.Generate(weapon.Spec{
		Name:       "brokenspec",
		Sinks:      []vuln.Sink{{Name: "broken_sink"}},
		Sanitizers: []string{"broken_sink"},
		Fix:        corrector.Template{Kind: corrector.PHPSanitization, SanFunc: "esc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, Options{Mode: ModeWAPe, Seed: 1, Weapons: []*weapon.Weapon{w}})
	err = e.DryRunWeapon(context.Background(), w)
	if err == nil {
		t.Fatal("dry-run accepted a weapon that cannot detect its own planted flow")
	}
	if !strings.Contains(err.Error(), "not detected") {
		t.Errorf("error should name the missed flow: %v", err)
	}
}

// TestWithWeaponsDerivation pins the hot-swap contract: the derived
// engine sees the union weapon set, shares breaker state with its base,
// and rotates the config digest on every revision.
func TestWithWeaponsDerivation(t *testing.T) {
	hot, err := weapon.Generate(weapon.Spec{
		Name:  "hotswaptest",
		Sinks: []vuln.Sink{{Name: "hot_sink"}},
		Fix:   corrector.Template{Kind: corrector.PHPSanitization, SanFunc: "esc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := newEngine(t, Options{Mode: ModeWAPe, Seed: 1, BreakerThreshold: 3})

	d1, err := base.WithWeapons(1, []*weapon.Weapon{hot})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d1.weapons["hotswaptest"]; !ok {
		t.Fatal("derived engine missing the hot weapon")
	}
	if d1.breakers != base.breakers {
		t.Error("derived engine must share the base engine's breakers")
	}
	if !d1.trained {
		t.Error("derived engine must inherit trained state")
	}

	// Same weapon set, different revision → different digest (fingerprints
	// rotate even when a removed weapon is re-added identically).
	d2, err := base.WithWeapons(2, []*weapon.Weapon{hot})
	if err != nil {
		t.Fatal(err)
	}
	if d1.configDigest() == d2.configDigest() {
		t.Error("revision change must rotate the config digest")
	}
	if base.configDigest() == d1.configDigest() {
		t.Error("weapon set change must rotate the config digest")
	}

	// Deriving with no hot weapons and revision 0 reproduces the base
	// digest: the zero revision is digest-neutral by design.
	d0, err := base.WithWeapons(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d0.configDigest() != base.configDigest() {
		t.Error("empty hot set at revision 0 must keep the base digest")
	}
}

// TestHotSwapMidScan swaps weapon sets while scans are running (the
// service's pattern: scans hold the engine they started with) and checks
// every scan's report matches the single-threaded report of the engine it
// ran on. Run with -race: this is the registry/engine concurrency test.
func TestHotSwapMidScan(t *testing.T) {
	specs := []weapon.Spec{
		{Name: "hotalpha", Sinks: []vuln.Sink{{Name: "alpha_sink"}},
			Fix: corrector.Template{Kind: corrector.PHPSanitization, SanFunc: "esc"}},
		{Name: "hotbeta", Sinks: []vuln.Sink{{Name: "beta_sink"}},
			Fix: corrector.Template{Kind: corrector.PHPSanitization, SanFunc: "esc"}},
	}
	var hot []*weapon.Weapon
	for _, s := range specs {
		w, err := weapon.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		hot = append(hot, w)
	}
	base := newEngine(t, Options{Mode: ModeWAPe, Seed: 1, Classes: []vuln.ClassID{vuln.SQLI}})

	src := map[string]string{"a.php": `<?php
$x = $_GET['x'];
alpha_sink("q" . $x);
beta_sink("q" . $x);
mysql_query("SELECT " . $x);
`}

	// Reference reports per weapon set, rendered to bytes.
	want := make([]string, 3)
	engines := make([]*Engine, 3)
	for i, set := range [][]*weapon.Weapon{nil, {hot[0]}, {hot[0], hot[1]}} {
		d, err := base.WithWeapons(int64(i), set)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = d
		rep, err := d.Analyze(LoadMap("swap", src))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderFindings(rep)
	}
	if want[0] == want[1] || want[1] == want[2] {
		t.Fatal("weapon sets must change findings for this fixture")
	}

	// Concurrent scans racing against engine derivation and use.
	var wg sync.WaitGroup
	for iter := 0; iter < 8; iter++ {
		for i := range engines {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Re-derive (what a swap does) and scan on the derived
				// engine while other goroutines scan other generations.
				d, err := base.WithWeapons(int64(i), [][]*weapon.Weapon{nil, {hot[0]}, {hot[0], hot[1]}}[i])
				if err != nil {
					t.Error(err)
					return
				}
				rep, err := d.Analyze(LoadMap("swap", src))
				if err != nil {
					t.Error(err)
					return
				}
				if got := renderFindings(rep); got != want[i] {
					t.Errorf("generation %d: findings drifted under concurrent swaps:\ngot  %s\nwant %s", i, got, want[i])
				}
			}(i)
		}
	}
	wg.Wait()
}

// renderFindings renders the deterministic finding set of a report.
func renderFindings(rep *Report) string {
	var b strings.Builder
	for _, f := range rep.Findings {
		b.WriteString(string(f.Candidate.Class))
		b.WriteString(" ")
		b.WriteString(f.Candidate.File)
		b.WriteString(":")
		b.WriteString(f.Candidate.SinkName)
		b.WriteString(" w=")
		b.WriteString(f.Weapon)
		b.WriteString("\n")
	}
	return b.String()
}
