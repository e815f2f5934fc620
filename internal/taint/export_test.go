package taint

import "repro/internal/vuln"

// SinksOf returns lane l's sinks named name in t.
func (t *Table) SinksOf(name string, l int) []vuln.Sink {
	if s := t.lookup(name).sinks; s != nil {
		return s[l]
	}
	return nil
}

// CompileConfigs is the table New and NewFused compile for their configs.
var CompileConfigs = compileConfigs
