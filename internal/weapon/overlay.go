package weapon

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/vuln"
)

// Overlay is an application's own additions to the engine's classes, the
// persistent per-application configuration of the paper's Section V-A: the
// user teaches the tool the application's sanitization functions (vfront's
// `escape`), input superglobals and sinks once, and every later analysis
// of the application uses them. It is stored as a `wap.conf` file next to
// the code and written in the spec-file grammar (ParseSpec), with one
// directive of its own, san-for, and a class= option on sink:
//
//	# vfront's own escaping helper (paper Section V-A)
//	san escape
//	san-for sqli quote_smart
//	ep _APP_INPUT
//	sink audit_query arg=0 class=sqli
//
// Directives:
//
//	san <func>                    sanitizer for every class
//	san-for <class> <func>        sanitizer for one class
//	ep <superglobal>              extra entry point for every class
//	sink <sink line> class=<class>  extra sink, as in a spec file
//
// The engine folds the overlay into copies of its classes once, when it
// is built (Fold); everything downstream sees plain classes.
type Overlay struct {
	// Sanitizers apply to every class.
	Sanitizers []string
	// EntryPoints are extra input superglobals (without $) for every class.
	EntryPoints []string
	// SanitizersFor maps a class to extra sanitizers for it only.
	SanitizersFor map[vuln.ClassID][]string
	// SinksFor maps a class to extra sinks.
	SinksFor map[vuln.ClassID][]vuln.Sink
}

// ParseOverlay reads a wap.conf stream.
func ParseOverlay(r io.Reader) (*Overlay, error) {
	o := &Overlay{}
	err := scanDirectives(r, "wap.conf", func(key, rest string) error {
		args := strings.Fields(rest)
		switch key {
		case "san":
			if len(args) != 1 {
				return errors.New("san needs a function name")
			}
			o.Sanitizers = append(o.Sanitizers, strings.ToLower(args[0]))
		case "san-for":
			if len(args) != 2 {
				return errors.New("san-for needs a class and a function")
			}
			id := vuln.ClassID(strings.ToLower(args[0]))
			if vuln.Get(id) == nil {
				return fmt.Errorf("unknown class %q", args[0])
			}
			if o.SanitizersFor == nil {
				o.SanitizersFor = make(map[vuln.ClassID][]string)
			}
			o.SanitizersFor[id] = append(o.SanitizersFor[id], strings.ToLower(args[1]))
		case "ep":
			if len(args) != 1 {
				return errors.New("ep needs a superglobal name")
			}
			o.EntryPoints = append(o.EntryPoints, entryPointName(args[0]))
		case "sink":
			var id vuln.ClassID
			s, err := parseSinkLine(rest, &id)
			if err != nil {
				return err
			}
			if vuln.Get(id) == nil {
				return errors.New("sink needs a valid class=")
			}
			if o.SinksFor == nil {
				o.SinksFor = make(map[vuln.ClassID][]vuln.Sink)
			}
			o.SinksFor[id] = append(o.SinksFor[id], s)
		default:
			return fmt.Errorf("unknown directive %q", key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return o, nil
}

// LoadOverlay reads a wap.conf file; a missing file yields an empty
// overlay without error.
func LoadOverlay(path string) (*Overlay, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return &Overlay{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("weapon: open %s: %w", path, err)
	}
	defer f.Close()
	return ParseOverlay(f)
}

// Fold returns a copy of c that carries the overlay's additions for it;
// fixID, when set, also counts as a sanitizer, so code the tool corrected
// is not re-flagged. c and its slices are never written: registry and
// weapon classes are shared by every engine built from them. An empty
// overlay entry-point list keeps c's own, so a class whose empty list means
// "no superglobals" (xss-s) stays distinct from one using the default set.
func (o *Overlay) Fold(c *vuln.Class, fixID string) *vuln.Class {
	f := *c
	var own []string
	if fixID != "" {
		own = []string{fixID}
	}
	f.Sanitizers = slices.Concat(c.Sanitizers, own, o.Sanitizers, o.SanitizersFor[c.ID])
	f.Sinks = slices.Concat(c.Sinks, o.SinksFor[c.ID])
	if len(o.EntryPoints) > 0 {
		f.EntryPoints = slices.Concat(c.EffectiveEntryPoints(), o.EntryPoints)
	}
	return &f
}
