// Sink matchers and the builtin taint-through table: the per-lane decisions
// the evaluator in fused.go consults once the table (table.go) has named
// the lanes a call matters to.
package taint

import (
	"repro/internal/php/ast"
	"repro/internal/php/token"
	"repro/internal/vuln"
)

// serverKeySafe reports whether a $_SERVER cell is set by the server itself
// rather than derived from the request; unknown keys stay tainted.
func serverKeySafe(key string) bool {
	switch key {
	case "REMOTE_ADDR", "REMOTE_PORT", "SERVER_ADDR", "SERVER_PORT",
		"SERVER_SOFTWARE", "GATEWAY_INTERFACE", "DOCUMENT_ROOT",
		"SCRIPT_FILENAME", "SERVER_PROTOCOL", "REQUEST_TIME",
		"REQUEST_TIME_FLOAT":
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Sink checking
// ---------------------------------------------------------------------------

// checkCallSinks matches a call against sinks, the lane's sinks of the
// call's name, and reports a candidate for each tainted dangerous argument.
func (a *Analyzer) checkCallSinks(sinks []vuln.Sink, name string, method bool, recvName string, call ast.Node, argExprs []ast.Expr, args []tval, pos token.Position) {
	for _, s := range sinks {
		if s.Method != method || s.Recv != "" && s.Recv != recvName {
			continue
		}
		idxs := s.Args
		if idxs == nil {
			idxs = make([]int, len(args))
			for i := range idxs {
				idxs[i] = i
			}
		}
		for _, i := range idxs {
			if i >= len(args) || !args[i].Tainted {
				continue
			}
			a.report(&Candidate{
				Class:         a.class.ID,
				SinkName:      name,
				SinkPos:       pos,
				SinkCall:      call,
				ArgIndex:      i,
				TaintedExpr:   argExprs[i],
				EnclosingFunc: a.curFunc,
				File:          a.fileName(),
			}, args[i])
		}
	}
}

// reportConstructSink reports the flow of v into a language-construct sink
// (echo, print, include, or exit/die with an argument) of a lane whose
// class has a function sink of that name; it has no argument index.
func (a *Analyzer) reportConstructSink(name string, node ast.Node, argExpr ast.Expr, v tval, pos token.Position) {
	a.report(&Candidate{
		Class:         a.class.ID,
		SinkName:      name,
		SinkPos:       pos,
		SinkCall:      node,
		ArgIndex:      -1,
		TaintedExpr:   argExpr,
		EnclosingFunc: a.curFunc,
		File:          a.fileName(),
	}, v)
}

func (a *Analyzer) fileName() string {
	if a.file != nil {
		return a.file.Name
	}
	return ""
}

// propagatesTaint reports whether a builtin passes input taint to its result
// (string manipulation functions).
func propagatesTaint(name string) bool {
	_, ok := taintThrough[name]
	return ok
}

// taintThrough is the set of PHP builtins that return data derived from
// their string inputs.
var taintThrough = map[string]struct{}{
	"substr": {}, "trim": {}, "ltrim": {}, "rtrim": {}, "strtolower": {},
	"strtoupper": {}, "ucfirst": {}, "ucwords": {}, "lcfirst": {},
	"str_replace": {}, "str_ireplace": {}, "preg_replace": {}, "ereg_replace": {},
	"eregi_replace": {}, "preg_filter": {}, "str_pad": {}, "str_repeat": {},
	"strrev": {}, "nl2br": {}, "wordwrap": {}, "sprintf": {}, "vsprintf": {},
	"implode": {}, "join": {}, "explode": {}, "split": {}, "spliti": {},
	"preg_split": {}, "str_split": {}, "chunk_split": {}, "substr_replace": {},
	"str_shuffle": {}, "strstr": {}, "stristr": {}, "strrchr": {}, "strtr": {},
	"stripslashes": {}, "stripcslashes": {}, "htmlspecialchars_decode": {},
	"html_entity_decode": {}, "urldecode": {}, "rawurldecode": {},
	"base64_decode": {}, "base64_encode": {}, "serialize": {}, "unserialize": {},
	"json_decode": {}, "array_merge": {}, "array_values": {}, "array_keys": {},
	"array_pop": {}, "array_shift": {}, "array_slice": {}, "array_map": {},
	"array_filter": {}, "current": {}, "reset": {}, "end": {}, "each": {},
	"compact": {}, "number_format": {}, "utf8_encode": {}, "utf8_decode": {},
	"iconv": {}, "mb_convert_encoding": {}, "mb_substr": {}, "mb_strtolower": {},
	"mb_strtoupper": {}, "addcslashes": {}, "quotemeta": {}, "strval": {},
	"print_r": {}, "var_export": {}, "gzinflate": {}, "gzuncompress": {},
	"pack": {}, "unpack": {}, "hex2bin": {}, "bin2hex": {},
}
