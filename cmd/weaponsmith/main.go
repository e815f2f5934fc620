// Command weaponsmith is the paper's weapon generator (Section III-D): it
// turns a weapon specification — sensitive sinks, sanitization functions,
// entry points, fix-template data and dynamic symptoms — into a weapon
// bundle ready to be linked into wap with its activation flag.
//
// Usage:
//
//	weaponsmith -spec nosqli.weapon -out weapons/   # generate a bundle
//	weaponsmith -builtin nosqli -out weapons/        # emit a built-in spec
//	weaponsmith -check myclass.weapon                # validate only
//	weaponsmith -gate weapons/*.weapon               # full validation ladder
//
// -gate runs each spec (plus every builtin) through the same ladder wapd
// applies to a hot upload — parse, validate, collision check, and a
// dry-run scan of the generated proof app — so CI catches a spec whose
// sinks or sanitizers do not behave as declared before it ships.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/weapon"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "weaponsmith:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("weaponsmith", flag.ContinueOnError)
	var (
		specPath = fs.String("spec", "", "weapon specification file")
		builtin  = fs.String("builtin", "", "emit a built-in spec (ei, hi, nosqli, wpsqli)")
		outDir   = fs.String("out", ".", "output directory for the generated bundle")
		check    = fs.String("check", "", "validate a spec file and exit")
		gate     = fs.Bool("gate", false, "run the full validation ladder (parse, collision check, proof-app dry-run) over the builtin specs and every spec file argument")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *gate {
		return runGate(fs.Args())
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: weaponsmith [flags] (spec file arguments need -gate)")
	}

	if *check != "" {
		spec, err := readSpec(*check)
		if err != nil {
			return err
		}
		if _, err := weapon.Generate(*spec); err != nil {
			return err
		}
		fmt.Printf("%s: valid weapon %q (%d sinks, %d sanitizers, %d dynamic symptoms)\n",
			*check, spec.Name, len(spec.Sinks), len(spec.Sanitizers), len(spec.Dynamics))
		return nil
	}

	var spec *weapon.Spec
	switch {
	case *builtin != "":
		for _, s := range weapon.BuiltinSpecs() {
			if s.Name == *builtin {
				spec = &s
				break
			}
		}
		if spec == nil {
			return fmt.Errorf("unknown built-in weapon %q", *builtin)
		}
	case *specPath != "":
		var err error
		spec, err = readSpec(*specPath)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -spec or -builtin is required")
	}

	w, err := weapon.Generate(*spec)
	if err != nil {
		return err
	}

	// Write the bundle: the spec file (the detector's ep/ss/san data and
	// symptoms) and the generated fix.
	dir := filepath.Join(*outDir, spec.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	specFile, err := os.Create(filepath.Join(dir, spec.Name+".weapon"))
	if err != nil {
		return err
	}
	defer specFile.Close()
	if err := weapon.WriteSpec(specFile, spec); err != nil {
		return err
	}
	fixSrc := "<?php\n// generated by weaponsmith\n" + w.Fix.Def + "\n"
	if err := os.WriteFile(filepath.Join(dir, w.Fix.ID+".php"), []byte(fixSrc), 0o644); err != nil {
		return err
	}

	fmt.Printf("weapon %q generated in %s\n", spec.Name, dir)
	fmt.Printf("  detector: %d sinks, %d sanitizers, %d extra entry points\n",
		len(spec.Sinks), len(spec.Sanitizers), len(spec.EntryPoints))
	fmt.Printf("  fix:      %s (%s template)\n", w.Fix.ID, w.Fix.Kind)
	fmt.Printf("  symptoms: %d dynamic\n", len(w.Dynamics))
	fmt.Printf("  activate with: wap %s <dir>  (or -weapon %s)\n",
		w.Flag(), filepath.Join(dir, spec.Name+".weapon"))
	return nil
}

// runGate is the CI gate behind `make weapons-gate`: every builtin spec and
// every spec file argument is generated, linked into one engine (which also
// proves the combined set has no duplicate or bundled-class collisions),
// and dry-run against its generated proof app — exactly the ladder wapd
// runs on a hot upload.
func runGate(files []string) error {
	type gated struct {
		w      *weapon.Weapon
		source string
	}
	builtin, err := weapon.Builtin()
	if err != nil {
		return err
	}
	var all []gated
	for _, w := range builtin {
		all = append(all, gated{w, "builtin"})
	}
	for _, path := range files {
		spec, err := readSpec(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		w, err := weapon.Generate(*spec)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		all = append(all, gated{w, path})
	}

	opts := core.Options{Mode: core.ModeWAPe, Seed: 2016}
	for _, g := range all {
		opts.Weapons = append(opts.Weapons, g.w)
	}
	// One shared engine: linking the combined set is itself a gate rung
	// (duplicate weapon names or bundled-class shadowing fail here).
	eng, err := core.New(opts)
	if err != nil {
		return err
	}

	failed := 0
	for _, g := range all {
		if err := eng.DryRunWeapon(context.Background(), g.w); err != nil {
			failed++
			fmt.Printf("FAIL %-12s (%s)\n     %v\n", g.w.Class.ID, g.source, err)
			continue
		}
		fmt.Printf("ok   %-12s (%s): %d sinks verified on the proof app\n",
			g.w.Class.ID, g.source, len(g.w.Spec.Sinks))
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d weapons failed the gate", failed, len(all))
	}
	fmt.Printf("weapons gate passed: %d weapons\n", len(all))
	return nil
}

func readSpec(path string) (*weapon.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return weapon.ParseSpec(f)
}
