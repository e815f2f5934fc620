package taint_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/taint"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

// TestTableOracle checks a compiled table against the class lists it was
// compiled from: for every name any class mentions, and for names none
// does, each role bit of each lane equals membership in that class's list,
// and the lane's sink entry is exactly the class's sinks of that name, in
// declaration order. It covers the default engine's 17 folded classes and a
// standalone table whose configs carry ExtraSanitizers.
func TestTableOracle(t *testing.T) {
	builtin, err := weapon.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(core.Options{Weapons: builtin})
	if err != nil {
		t.Fatal(err)
	}
	classes := e.Classes()
	if len(classes) != 17 {
		t.Fatalf("default engine has %d classes, want 17", len(classes))
	}
	checkTable(t, "engine", taint.Compile(classes), classes, nil)

	cfgs := []taint.Config{
		{Class: vuln.MustGet(vuln.SQLI), ExtraSanitizers: []string{"app_escape", "htmlentities"}},
		{Class: vuln.MustGet(vuln.XSSR)},
		{Class: vuln.MustGet(vuln.XSSS), ExtraSanitizers: []string{"app_escape"}},
		{Class: vuln.MustGet(vuln.SQLI)},
	}
	one := make([]*vuln.Class, len(cfgs))
	extra := make([][]string, len(cfgs))
	for i, c := range cfgs {
		one[i], extra[i] = c.Class, c.ExtraSanitizers
	}
	checkTable(t, "configs", taint.CompileConfigs(cfgs), one, extra)
}

// TestFusedLaneCap pins the lane limit of one table and one pass: a
// 64-class table sets lane 63 like any other lane and no lane past it, and
// 65 classes or configs panic with the limit in the message, where a
// silent shift past the mask's word would drop the 65th class's every role.
func TestFusedLaneCap(t *testing.T) {
	classes := make([]*vuln.Class, taint.MaxLanes+1)
	for i := range classes {
		classes[i] = &vuln.Class{
			ID:              vuln.ClassID(fmt.Sprintf("cap%02d", i)),
			EntryPoints:     []string{fmt.Sprintf("CAP_IN_%d", i)},
			EntryPointFuncs: []string{fmt.Sprintf("cap_src_%d", i)},
			Sinks:           []vuln.Sink{{Name: fmt.Sprintf("cap_sink_%d", i)}, {Name: "cap_query", Method: true}},
			Sanitizers:      []string{fmt.Sprintf("cap_clean_%d", i)},
		}
	}
	full := classes[:taint.MaxLanes]
	tab := taint.Compile(full)
	checkTable(t, "64 classes", tab, full, nil)
	last := taint.MaxLanes - 1
	for _, c := range []struct {
		name string
		role taint.Role
	}{
		{fmt.Sprintf("CAP_IN_%d", last), taint.EntryVar},
		{fmt.Sprintf("cap_src_%d", last), taint.EntryFunc},
		{fmt.Sprintf("cap_sink_%d", last), taint.FuncSink},
		{fmt.Sprintf("cap_clean_%d", last), taint.Sanitizer},
		{"cap_query", taint.MethodSink},
	} {
		if s := tab.Lanes(c.name, c.role); !s.Has(last) || s.Has(taint.MaxLanes) {
			t.Errorf("%q role %d: lane %d = %v, lane %d = %v; want true, false",
				c.name, c.role, last, s.Has(last), taint.MaxLanes, s.Has(taint.MaxLanes))
		}
	}

	cfgs := make([]taint.Config, len(classes))
	for i, c := range classes {
		cfgs[i] = taint.Config{Class: c}
	}
	for name, build := range map[string]func(){
		"Compile":  func() { taint.Compile(classes) },
		"NewFused": func() { taint.NewFused(cfgs) },
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprint(taint.MaxLanes)) {
					t.Errorf("%s of %d classes: recovered %q, want a panic naming the limit %d",
						name, len(classes), msg, taint.MaxLanes)
				}
			}()
			build()
		}()
	}
}

// checkTable compares tab with classes, where extra[i] are lane i's
// sanitizers beyond its class's own.
func checkTable(t *testing.T, label string, tab *taint.Table, classes []*vuln.Class, extra [][]string) {
	t.Helper()
	extraOf := func(i int) []string {
		if extra == nil {
			return nil
		}
		return extra[i]
	}
	names := []string{"", "myvar", "_get", "MYSQL_QUERY", "$_GET", "no_such_function"}
	for i, c := range classes {
		names = slices.Concat(names, c.EffectiveEntryPoints(), c.EntryPointFuncs, c.Sanitizers,
			c.SanitizerMethods, vuln.UniversalSanitizers, extraOf(i))
		for _, s := range c.Sinks {
			names = append(names, s.Name)
		}
	}
	slices.Sort(names)
	names = slices.Compact(names)

	checked := 0
	for _, name := range names {
		for i, c := range classes {
			var fnSink, methSink bool
			var sinks []vuln.Sink
			for _, s := range c.Sinks {
				if s.Name == name {
					sinks = append(sinks, s)
					fnSink = fnSink || !s.Method
					methSink = methSink || s.Method
				}
			}
			want := map[taint.Role]bool{
				taint.EntryVar:  slices.Contains(c.EffectiveEntryPoints(), name),
				taint.EntryFunc: slices.Contains(c.EntryPointFuncs, name),
				taint.Sanitizer: slices.Contains(c.Sanitizers, name) ||
					slices.Contains(vuln.UniversalSanitizers, name) || slices.Contains(extraOf(i), name),
				taint.SanitizerMethod: slices.Contains(c.SanitizerMethods, name),
				taint.FuncSink:        fnSink,
				taint.MethodSink:      methSink,
			}
			for r, w := range want {
				if got := tab.Lanes(name, r).Has(i); got != w {
					t.Errorf("%s: %q lane %d (%s) role %d = %v, want %v", label, name, i, c.ID, r, got, w)
				}
				checked++
			}
			if got := tab.SinksOf(name, i); !reflect.DeepEqual(got, sinks) {
				t.Errorf("%s: %q lane %d (%s) sinks = %+v, want %+v", label, name, i, c.ID, got, sinks)
			}
		}
		if got := tab.Lanes(name, taint.FuncSink).Has(len(classes)); got {
			t.Errorf("%s: %q sets a lane past the table's %d classes", label, name, len(classes))
		}
	}
	t.Logf("%s: %d names × %d lanes, %d role bits", label, len(names), len(classes), checked)
}
