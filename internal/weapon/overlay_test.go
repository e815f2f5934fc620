package weapon

import (
	"reflect"
	"strings"
	"testing"
	"unicode"

	"repro/internal/vuln"
)

// FuzzParseOverlay asserts ParseOverlay never panics and that whatever it
// accepts is fit to fold into the engine's classes: lower-case function
// and class names, non-negative argument indices, registered class IDs,
// and every sink line read as the very vuln.Sink ParseSpec reads from it.
func FuzzParseOverlay(f *testing.F) {
	// The README's wap.conf, then the inputs the parser must reject.
	f.Add("# vfront\nsan escape\nsan-for sqli quote_smart\nep _APP_INPUT\nsink audit_query arg=0 class=sqli\n")
	f.Add("sink run method recv=db arg=1 arg=0 class=wpsqli\nep $_X\nsan\tEscape\n")
	for _, src := range []string{
		"san\n", "san-for nope f\n", "san-for sqli\n", "ep\n", "sink f\n",
		"sink f class=nope\n", "sink f arg=x class=sqli\n", "sink f arg=1x class=sqli\n",
		"sink f weird class=sqli\n", "bogus directive\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		o, err := ParseOverlay(strings.NewReader(src))
		if err != nil {
			return
		}
		lower := func(what, s string) {
			if s != strings.ToLower(s) {
				t.Fatalf("%s %q is not lower-case\ninput: %q", what, s, src)
			}
		}
		known := func(id vuln.ClassID) {
			if vuln.Get(id) == nil {
				t.Fatalf("unknown class %q accepted\ninput: %q", id, src)
			}
		}
		for _, s := range o.Sanitizers {
			lower("san", s)
		}
		for id, sans := range o.SanitizersFor {
			known(id)
			for _, s := range sans {
				lower("san-for", s)
			}
		}
		for id, sinks := range o.SinksFor {
			known(id)
			for _, s := range sinks {
				lower("sink name", s.Name)
				lower("sink recv", s.Recv)
				for _, a := range s.Args {
					if a < 0 {
						t.Fatalf("sink %q has argument index %d\ninput: %q", s.Name, a, src)
					}
				}
			}
		}
		// Each sink line, its class= option taken out, must parse in a
		// spec file to the sink the overlay holds.
		next := make(map[vuln.ClassID]int)
		for _, line := range strings.Split(src, "\n") {
			fields := strings.FieldsFunc(line, unicode.IsSpace)
			if len(fields) < 2 || fields[0] != "sink" {
				continue
			}
			var id vuln.ClassID
			kept := fields[1:2]
			for _, fl := range fields[2:] {
				if c, ok := strings.CutPrefix(fl, "class="); ok {
					id = vuln.ClassID(strings.ToLower(c))
				} else {
					kept = append(kept, fl)
				}
			}
			spec, err := ParseSpec(strings.NewReader("name w\nsink " + strings.Join(kept, " ") + "\nfix-template php_san\n"))
			if err != nil {
				t.Fatalf("sink line %q: ParseSpec: %v\ninput: %q", line, err, src)
			}
			got := o.SinksFor[id][next[id]]
			next[id]++
			if !reflect.DeepEqual(spec.Sinks[0], got) {
				t.Fatalf("sink line %q: overlay %+v, spec %+v\ninput: %q", line, got, spec.Sinks[0], src)
			}
		}
	})
}
