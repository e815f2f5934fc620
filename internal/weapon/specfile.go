package weapon

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/corrector"
	"repro/internal/symptom"
	"repro/internal/vuln"
)

// The spec file is the external representation of the ss/san/ep data the
// paper stores "in external files, allowing the inclusion of new items
// without recompiling the tool". One line per item:
//
//	name nosqli
//	description NoSQL injection for MongoDB
//	sink find method
//	sink header arg=0
//	sink query method recv=wpdb
//	san mysql_real_escape_string
//	san-method prepare
//	ep _CUSTOM
//	ep-func mysql_fetch_assoc
//	fix-template php_san | user_san | user_val
//	fix-san mysql_real_escape_string
//	fix-chars \r \n %0a
//	fix-neutralizer \x20
//	fix-message WAP: blocked
//	symptom val_int -> is_int validation
//
// '#' starts a comment; blank lines are ignored. An ep name may keep its
// '$' ("ep $_CUSTOM"); it is dropped. wap.conf files (ParseOverlay) use
// the same scanner and sink syntax.

// MaxSpecLine is the longest spec line ParseSpec accepts. Real weapon
// specs keep one item per line, but a generated spec can legitimately carry
// hundreds of sinks or malicious characters on a single directive, so the
// limit is far above bufio.Scanner's 64 KiB default token size.
const MaxSpecLine = 4 << 20

// ParseSpec reads a weapon spec file.
func ParseSpec(r io.Reader) (*Spec, error) {
	spec := &Spec{}
	err := scanDirectives(r, "spec", func(key, rest string) error {
		switch key {
		case "name":
			spec.Name = rest
		case "description":
			spec.Description = rest
		case "sink":
			s, err := parseSinkLine(rest, nil)
			if err != nil {
				return err
			}
			spec.Sinks = append(spec.Sinks, s)
		case "san":
			spec.Sanitizers = append(spec.Sanitizers, strings.ToLower(rest))
		case "san-method":
			spec.SanitizerMethods = append(spec.SanitizerMethods, strings.ToLower(rest))
		case "ep":
			spec.EntryPoints = append(spec.EntryPoints, entryPointName(rest))
		case "ep-func":
			spec.EntryPointFuncs = append(spec.EntryPointFuncs, strings.ToLower(rest))
		case "fix-template":
			switch rest {
			case "php_san":
				spec.Fix.Kind = corrector.PHPSanitization
			case "user_san":
				spec.Fix.Kind = corrector.UserSanitization
			case "user_val":
				spec.Fix.Kind = corrector.UserValidation
			default:
				return fmt.Errorf("unknown fix template %q", rest)
			}
		case "fix-san":
			spec.Fix.SanFunc = rest
		case "fix-chars":
			for _, c := range strings.Fields(rest) {
				spec.Fix.MaliciousChars = append(spec.Fix.MaliciousChars, unescapeChar(c))
			}
		case "fix-neutralizer":
			spec.Fix.Neutralizer = unescapeChar(rest)
		case "fix-message":
			spec.Fix.Message = rest
		case "symptom":
			return parseSymptomLine(spec, rest)
		default:
			return fmt.Errorf("unknown directive %q", key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// scanDirectives is the one line scanner of spec files and wap.conf: it
// hands fn each directive as its key (the line up to the first white
// space) and the trimmed rest of the line. '#' starts a comment line; blank lines are
// skipped. what names the file kind in errors.
func scanDirectives(r io.Reader, what string, fn func(key, rest string) error) error {
	sc := bufio.NewScanner(r)
	// The default Scanner token cap is 64 KiB; a longer sink or fix-chars
	// line would fail with bufio.ErrTooLong mid-file.
	sc.Buffer(make([]byte, 0, 64<<10), MaxSpecLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest := line, ""
		if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
			key, rest = line[:i], strings.TrimSpace(line[i:])
		}
		if err := fn(key, rest); err != nil {
			return fmt.Errorf("weapon: %s line %d: %w", what, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("weapon: read %s: %w", what, err)
	}
	return nil
}

// entryPointName names a superglobal without its '$': "ep $_X" and
// "ep _X" both mean _X, the form the evaluator matches.
func entryPointName(v string) string {
	return strings.TrimLeftFunc(v, func(r rune) bool { return r == '$' || unicode.IsSpace(r) })
}

// parseSinkLine parses "name [method] [recv=var] [arg=i ...]". With a
// non-nil class it also takes wap.conf's "class=id", stored lower-cased.
func parseSinkLine(rest string, class *vuln.ClassID) (vuln.Sink, error) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return vuln.Sink{}, fmt.Errorf("sink needs a name")
	}
	s := vuln.Sink{Name: strings.ToLower(fields[0])}
	for _, f := range fields[1:] {
		switch {
		case f == "method":
			s.Method = true
		case strings.HasPrefix(f, "recv="):
			s.Recv = strings.ToLower(strings.TrimPrefix(f, "recv="))
		case strings.HasPrefix(f, "arg="):
			n, err := strconv.Atoi(strings.TrimPrefix(f, "arg="))
			if err != nil || n < 0 {
				return vuln.Sink{}, fmt.Errorf("bad arg index %q", f)
			}
			s.Args = append(s.Args, n)
		case class != nil && strings.HasPrefix(f, "class="):
			*class = vuln.ClassID(strings.ToLower(strings.TrimPrefix(f, "class=")))
		default:
			return vuln.Sink{}, fmt.Errorf("unknown sink option %q", f)
		}
	}
	return s, nil
}

// parseSymptomLine parses "func -> static_symptom category".
func parseSymptomLine(spec *Spec, rest string) error {
	fn, mapping, ok := strings.Cut(rest, "->")
	if !ok {
		return fmt.Errorf("symptom needs 'func -> static [category]'")
	}
	fields := strings.Fields(strings.TrimSpace(mapping))
	if len(fields) == 0 {
		return fmt.Errorf("symptom needs a static symptom name")
	}
	d := symptom.Dynamic{Func: strings.ToLower(strings.TrimSpace(fn)), MapsTo: fields[0]}
	if len(fields) > 1 {
		switch fields[1] {
		case "validation":
			d.Category = symptom.Validation
		case "string", "string_manipulation":
			d.Category = symptom.StringManipulation
		case "sql", "sql_query_manipulation":
			d.Category = symptom.SQLQueryManipulation
		default:
			return fmt.Errorf("unknown symptom category %q", fields[1])
		}
	} else {
		d.Category = symptom.Validation
	}
	spec.Dynamics = append(spec.Dynamics, d)
	return nil
}

// specValue rejects values the line-oriented format cannot carry: a line
// break would split the value across physical lines (the remainder is then
// re-parsed as a directive, or silently dropped as a comment if it starts
// with '#'), and surrounding whitespace would be silently trimmed on
// re-parse. Everything ParseSpec can produce passes, so parse → write →
// parse is loss-free.
func specValue(field, v string) error {
	if strings.ContainsAny(v, "\r\n") {
		return fmt.Errorf("weapon: write spec: %s value %q contains a line break, which the line-oriented spec format cannot represent", field, v)
	}
	if v != strings.TrimSpace(v) {
		return fmt.Errorf("weapon: write spec: %s value %q has leading or trailing whitespace that would be lost on re-parse", field, v)
	}
	return nil
}

// specToken is specValue for single-token fields (parsed with
// strings.Fields), where any interior whitespace also splits the value.
func specToken(field, v string) error {
	if err := specValue(field, v); err != nil {
		return err
	}
	if v != "" && len(strings.Fields(v)) != 1 {
		return fmt.Errorf("weapon: write spec: %s value %q contains whitespace, but the field is parsed as a single token", field, v)
	}
	return nil
}

// checkWritable verifies every field survives a WriteSpec → ParseSpec
// round-trip unchanged.
func checkWritable(spec *Spec) error {
	if err := specValue("name", spec.Name); err != nil {
		return err
	}
	if err := specValue("description", spec.Description); err != nil {
		return err
	}
	for _, s := range spec.Sinks {
		if err := specToken("sink name", s.Name); err != nil {
			return err
		}
		if err := specToken("sink recv", s.Recv); err != nil {
			return err
		}
	}
	for _, s := range spec.Sanitizers {
		if err := specValue("san", s); err != nil {
			return err
		}
	}
	for _, s := range spec.SanitizerMethods {
		if err := specValue("san-method", s); err != nil {
			return err
		}
	}
	for _, e := range spec.EntryPoints {
		if err := specValue("ep", e); err != nil {
			return err
		}
	}
	for _, e := range spec.EntryPointFuncs {
		if err := specValue("ep-func", e); err != nil {
			return err
		}
	}
	if err := specValue("fix-san", spec.Fix.SanFunc); err != nil {
		return err
	}
	for _, c := range spec.Fix.MaliciousChars {
		esc := escapeChar(c)
		if len(strings.Fields(esc)) != 1 || unescapeChar(esc) != c {
			return fmt.Errorf("weapon: write spec: fix-chars entry %q has no loss-free escaped form", c)
		}
	}
	if n := spec.Fix.Neutralizer; n != "" {
		esc := escapeChar(n)
		if strings.ContainsAny(esc, "\r\n") || esc != strings.TrimSpace(esc) || unescapeChar(esc) != n {
			return fmt.Errorf("weapon: write spec: fix-neutralizer %q has no loss-free escaped form", n)
		}
	}
	if err := specValue("fix-message", spec.Fix.Message); err != nil {
		return err
	}
	for _, d := range spec.Dynamics {
		if err := specValue("symptom func", d.Func); err != nil {
			return err
		}
		if strings.Contains(d.Func, "->") {
			return fmt.Errorf("weapon: write spec: symptom func %q contains \"->\", the func/static separator", d.Func)
		}
		if err := specToken("symptom static name", d.MapsTo); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpec serializes a spec in the file format understood by ParseSpec.
// It fails rather than write a file that would not re-parse to an equal
// spec (e.g. a description containing a newline: the continuation line
// would be dropped as a comment or mis-read as a directive).
func WriteSpec(w io.Writer, spec *Spec) error {
	if err := checkWritable(spec); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# WAP weapon specification\nname %s\n", spec.Name)
	if spec.Description != "" {
		fmt.Fprintf(bw, "description %s\n", spec.Description)
	}
	for _, s := range spec.Sinks {
		fmt.Fprintf(bw, "sink %s", s.Name)
		if s.Method {
			fmt.Fprint(bw, " method")
		}
		if s.Recv != "" {
			fmt.Fprintf(bw, " recv=%s", s.Recv)
		}
		for _, a := range s.Args {
			fmt.Fprintf(bw, " arg=%d", a)
		}
		fmt.Fprintln(bw)
	}
	for _, s := range spec.Sanitizers {
		fmt.Fprintf(bw, "san %s\n", s)
	}
	for _, s := range spec.SanitizerMethods {
		fmt.Fprintf(bw, "san-method %s\n", s)
	}
	for _, e := range spec.EntryPoints {
		fmt.Fprintf(bw, "ep %s\n", e)
	}
	for _, e := range spec.EntryPointFuncs {
		fmt.Fprintf(bw, "ep-func %s\n", e)
	}
	switch spec.Fix.Kind {
	case corrector.PHPSanitization:
		fmt.Fprintln(bw, "fix-template php_san")
	case corrector.UserSanitization:
		fmt.Fprintln(bw, "fix-template user_san")
	case corrector.UserValidation:
		fmt.Fprintln(bw, "fix-template user_val")
	}
	if spec.Fix.SanFunc != "" {
		fmt.Fprintf(bw, "fix-san %s\n", spec.Fix.SanFunc)
	}
	if len(spec.Fix.MaliciousChars) > 0 {
		fmt.Fprint(bw, "fix-chars")
		for _, c := range spec.Fix.MaliciousChars {
			fmt.Fprintf(bw, " %s", escapeChar(c))
		}
		fmt.Fprintln(bw)
	}
	if spec.Fix.Neutralizer != "" {
		fmt.Fprintf(bw, "fix-neutralizer %s\n", escapeChar(spec.Fix.Neutralizer))
	}
	if spec.Fix.Message != "" {
		fmt.Fprintf(bw, "fix-message %s\n", spec.Fix.Message)
	}
	for _, d := range spec.Dynamics {
		cat := "validation"
		switch d.Category {
		case symptom.StringManipulation:
			cat = "string"
		case symptom.SQLQueryManipulation:
			cat = "sql"
		}
		fmt.Fprintf(bw, "symptom %s -> %s %s\n", d.Func, d.MapsTo, cat)
	}
	return bw.Flush()
}

func unescapeChar(s string) string {
	switch s {
	case `\r`:
		return "\r"
	case `\n`:
		return "\n"
	case `\t`:
		return "\t"
	case `\0`:
		return "\x00"
	case `\x20`, `\s`:
		return " "
	default:
		return s
	}
}

func escapeChar(s string) string {
	switch s {
	case "\r":
		return `\r`
	case "\n":
		return `\n`
	case "\t":
		return `\t`
	case "\x00":
		return `\0`
	case " ":
		return `\x20`
	default:
		return s
	}
}
