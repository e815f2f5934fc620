// Package weapon implements the paper's headline contribution: WAP
// extensions ("weapons") that detect and correct new vulnerability classes
// without programming. A weapon is generated from user-provided data — the
// sensitive sinks and sanitization functions (plus optional entry points)
// for the detector, fix-template data for the fix, and optional dynamic
// symptoms — and plugs into the engine as a new detector + fix + symptom
// map (Section III-D).
package weapon

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/corrector"
	"repro/internal/symptom"
	"repro/internal/vuln"
)

// Spec is the user-provided configuration the weapon generator consumes.
type Spec struct {
	// Name identifies the weapon and derives the activation flag: a weapon
	// named "nosqli" is activated by -nosqli.
	Name string
	// Description is free-form documentation.
	Description string

	// Sinks are the sensitive sinks of the new class (functions exploited
	// by the attack).
	Sinks []vuln.Sink
	// Sanitizers are functions that neutralize malicious input.
	Sanitizers []string
	// SanitizerMethods are sanitizing method names (e.g. "prepare").
	SanitizerMethods []string
	// EntryPoints are additional input superglobals, beyond the native set.
	EntryPoints []string
	// EntryPointFuncs are functions whose return values are tainted.
	EntryPointFuncs []string

	// Fix is the fix-template instantiation data (Section III-C).
	Fix corrector.Template

	// Dynamics are the user's dynamic symptoms (Section III-B2).
	Dynamics []symptom.Dynamic
}

// Validate checks the spec is complete enough to generate a weapon.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("weapon: spec needs a name")
	}
	for _, r := range s.Name {
		if r <= ' ' || r == '/' || r == '\\' || r == 0x7f {
			return fmt.Errorf("weapon: name %q must be a single flag-friendly word", s.Name)
		}
	}
	// A weapon's lowered name becomes its class ID. Shadowing a bundled
	// non-weapon class (e.g. naming a weapon "sqli") would silently
	// double-register the class and make reports ambiguous. Bundled classes
	// that are themselves weapons (nosqli, hi, ei, wpsqli) stay permitted:
	// the built-in specs are derived from them, and core.New refuses a
	// weapon that redefines a class already in the engine's set.
	if c := vuln.Get(vuln.ClassID(strings.ToLower(s.Name))); c != nil && !c.Weapon {
		return fmt.Errorf("weapon: name %q collides with the bundled %s class (%s); weapon names must not shadow built-in class IDs", s.Name, c.ID, c.Name)
	}
	if len(s.Sinks) == 0 {
		return fmt.Errorf("weapon: spec %q needs at least one sensitive sink", s.Name)
	}
	for _, d := range s.Dynamics {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("weapon: spec %q: %w", s.Name, err)
		}
	}
	switch s.Fix.Kind {
	case corrector.PHPSanitization, corrector.UserSanitization, corrector.UserValidation:
	default:
		return fmt.Errorf("weapon: spec %q needs a fix template", s.Name)
	}
	return nil
}

// Weapon is a generated extension: a detector configuration, a fix, and
// dynamic symptoms, ready to be linked into the engine.
type Weapon struct {
	// Class is the generated detector configuration; its ID is the weapon
	// name and its Submodule is SubGenerated.
	Class *vuln.Class
	// Fix is the generated fix.
	Fix *corrector.Fix
	// Dynamics are the user's dynamic symptoms.
	Dynamics []symptom.Dynamic
	// Spec preserves the source configuration.
	Spec Spec
}

// Flag returns the command-line flag activating the weapon.
func (w *Weapon) Flag() string { return "-" + string(w.Class.ID) }

// Generate builds a weapon from a spec: it configures the generic
// vulnerability detector with the (ep, ss, san) data, instantiates the fix
// template, and packages the dynamic symptoms (the paper's weapon
// generator).
func Generate(spec Spec) (*Weapon, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	id := vuln.ClassID(strings.ToLower(spec.Name))
	// A weapon named after a bundled weapon class keeps that class's fix
	// ID (hi and ei share san_hei); any other weapon gets its own.
	fixID := "san_" + string(id)
	if c := vuln.Get(id); c != nil {
		fixID = c.FixID
	}
	fx, err := corrector.GenerateFix(fixID, spec.Fix)
	if err != nil {
		return nil, fmt.Errorf("weapon: spec %q: %w", spec.Name, err)
	}

	cls := &vuln.Class{
		ID:               id,
		Name:             spec.Description,
		Description:      spec.Description,
		Submodule:        vuln.SubGenerated,
		Sinks:            append([]vuln.Sink(nil), spec.Sinks...),
		Sanitizers:       lowerAll(spec.Sanitizers),
		SanitizerMethods: lowerAll(spec.SanitizerMethods),
		EntryPointFuncs:  lowerAll(spec.EntryPointFuncs),
		FixID:            fixID,
		New:              true,
		Weapon:           true,
	}
	if cls.Name == "" {
		cls.Name = strings.ToUpper(spec.Name)
	}
	if len(spec.EntryPoints) > 0 {
		// Weapons extend the native entry points rather than replacing them.
		cls.EntryPoints = append(append([]string(nil), vuln.DefaultEntryPoints...), spec.EntryPoints...)
	}
	// Normalize sink names to lower case.
	for i := range cls.Sinks {
		cls.Sinks[i].Name = strings.ToLower(cls.Sinks[i].Name)
		cls.Sinks[i].Recv = strings.ToLower(cls.Sinks[i].Recv)
	}

	return &Weapon{
		Class:    cls,
		Fix:      fx,
		Dynamics: append([]symptom.Dynamic(nil), spec.Dynamics...),
		Spec:     spec,
	}, nil
}

func lowerAll(in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = strings.ToLower(s)
	}
	return out
}

// BuiltinSpecs returns the weapons the paper creates (Section IV-C): NoSQLI,
// HI and EI (separate weapons sharing the san_hei fix) and SQLI for
// WordPress — one spec per registry class marked Weapon, in vuln.All()
// order. Nothing is restated: the detector data is the registry class's and
// the fix is the corrector catalog's template for the class's fix ID.
func BuiltinSpecs() []Spec {
	var out []Spec
	for _, c := range vuln.All() {
		if !c.Weapon {
			continue
		}
		out = append(out, Spec{
			Name:             string(c.ID),
			Description:      c.Name,
			Sinks:            slices.Clone(c.Sinks),
			Sanitizers:       slices.Clone(c.Sanitizers),
			SanitizerMethods: slices.Clone(c.SanitizerMethods),
			EntryPoints:      slices.Clone(c.EntryPoints),
			EntryPointFuncs:  slices.Clone(c.EntryPointFuncs),
			Fix:              corrector.BuiltinTemplate(c.FixID),
			Dynamics:         slices.Clone(builtinDynamics[c.ID]),
		})
	}
	return out
}

// builtinDynamics are the dynamic symptoms of the built-in weapons, the one
// piece of built-in weapon data with no other home: WordPress's sanitizers
// and validators mapped onto the predictor's attributes.
var builtinDynamics = map[vuln.ClassID][]symptom.Dynamic{
	vuln.WPSQLI: {
		{Func: "sanitize_text_field", Category: symptom.StringManipulation, MapsTo: "str_replace"},
		{Func: "sanitize_email", Category: symptom.StringManipulation, MapsTo: "str_replace"},
		{Func: "sanitize_title", Category: symptom.StringManipulation, MapsTo: "str_replace"},
		{Func: "wp_kses", Category: symptom.StringManipulation, MapsTo: "str_replace"},
		{Func: "absint", Category: symptom.Validation, MapsTo: "intval"},
		{Func: "is_email", Category: symptom.Validation, MapsTo: "preg_match"},
	},
}

// Builtin generates the built-in weapon set, one weapon per BuiltinSpecs
// entry, in order. It is the set a default wap or wapd engine links.
func Builtin() ([]*Weapon, error) {
	var out []*Weapon
	for _, s := range BuiltinSpecs() {
		w, err := Generate(s)
		if err != nil {
			return nil, fmt.Errorf("weapon: built-in %q: %w", s.Name, err)
		}
		out = append(out, w)
	}
	return out, nil
}
