package main

import (
	"strings"
	"testing"
	"time"
)

func TestRunRejectsPositionalArgs(t *testing.T) {
	err := run([]string{"some-dir"})
	if err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("err = %v, want usage error", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	// A shared tier's size cap lives on its -cache-serve replica.
	if err := run([]string{"-cache-backend", "http://127.0.0.1:1", "-cache-max-bytes", "1024"}); err == nil ||
		!strings.Contains(err.Error(), "-cache-max-bytes") {
		t.Fatalf("-cache-max-bytes with -cache-backend = %v, want the flag-pair error", err)
	}
}

// TestBuildEngineWiresRobustnessOptions checks the service engine carries
// the retry/breaker configuration and every built-in weapon class.
func TestBuildEngineWiresRobustnessOptions(t *testing.T) {
	eng, err := buildEngine(engineParams{
		seed: 1, taskTimeout: time.Second,
		retryMax: 3, retryBackoff: time.Millisecond,
		breakerThreshold: 4, breakerCooldown: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Breakers armed: the snapshot map exists (empty until tasks run).
	if snap := eng.BreakerSnapshot(); snap == nil {
		t.Error("breaker threshold did not arm the circuit breakers")
	}
	// The WAPe class set plus built-in weapons.
	if n := len(eng.Classes()); n < 15 {
		t.Errorf("engine has %d classes, want the full WAPe set + weapons", n)
	}
}
