package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/weapon"
)

// The weapons platform: wapd accepts new detector classes ("weapons") at
// runtime, the paper's without-programming extension point promoted to a
// fleet service. POST /weapons runs the validation ladder —
//
//	ParseSpec → Spec.Validate → collision check against bundled class IDs
//	→ dry-run against a generated proof corpus with expected findings
//
// — and only a spec that passes every rung is admitted to the versioned
// registry, persisted to -weapons-dir, and swapped into service. The swap
// derives a NEW engine (base weapons + registry set, stamped with the
// registry revision) and atomically replaces the pointer new scans pick
// up; running scans keep the engine they started with. The revision is in
// the engine's config digest, so incremental result-store fingerprints
// rotate on every weapon change — a swap can never splice findings cached
// under a previous weapon set into a report. Each weapon class has its own
// circuit breaker (shared across swaps), so one pathological user weapon
// degrades to diagnostics instead of consuming the worker pool.

// maxWeaponBytes bounds an uploaded spec file (1 MiB — real specs are a
// few hundred bytes).
const maxWeaponBytes = 1 << 20

// weaponPlatform is the server-side state of the hot-reload pipeline.
type weaponPlatform struct {
	base     *core.Engine     // startup engine: derivation base, never swapped
	registry *weapon.Registry // admitted hot weapons, monotonic revision
	dir      string           // persistence directory ("" = memory only)

	// mu serializes the validation ladder, persistence and swap; the
	// engine pointer itself is read lock-free by scans via Server.engine.
	mu sync.Mutex

	// loadErrs records spec files that failed replay at startup (surfaced
	// in /healthz, never fatal: one bad file must not take the fleet down).
	loadErrs []string
}

// WeaponInfo is one entry of GET /weapons.
type WeaponInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Revision is the registry revision that admitted this entry; Startup
	// weapons (builtin specs, -weapon flags) are fixed at 0 and cannot be
	// changed over HTTP.
	Revision   int64  `json:"revision"`
	Startup    bool   `json:"startup,omitempty"`
	AdmittedMS int64  `json:"admitted_ms,omitempty"`
	Sinks      int    `json:"sinks,omitempty"`
	Flag       string `json:"flag,omitempty"`
}

// WeaponsResponse is the body of GET /weapons and of a successful
// POST /weapons or DELETE /weapons/{name}.
type WeaponsResponse struct {
	// Revision is the registry revision after the operation; engines
	// serving new scans carry it in their config digest.
	Revision int64        `json:"revision"`
	Weapons  []WeaponInfo `json:"weapons"`
	// Admitted / Removed name the weapon the request changed.
	Admitted string `json:"admitted,omitempty"`
	Removed  string `json:"removed,omitempty"`
	// PersistError is set when the weapon is live but could not be written
	// to (or removed from) the weapons dir: it will not survive a restart.
	PersistError string `json:"persist_error,omitempty"`
}

// weaponError is the diagnostic body of a rejected upload: Stage names the
// validation rung that failed.
type weaponError struct {
	Error string `json:"error"`
	Stage string `json:"stage"`
}

// initWeapons wires the hot-reload platform into a new server and replays
// the weapons dir. Must run before the worker pool starts.
func (s *Server) initWeapons() error {
	reserved := make([]string, 0, 8)
	for _, id := range s.cfg.Engine.WeaponIDs() {
		reserved = append(reserved, string(id))
	}
	s.weapons = &weaponPlatform{
		base:     s.cfg.Engine,
		registry: weapon.NewRegistry(reserved),
		dir:      s.cfg.WeaponsDir,
	}
	s.engineVal.Store(s.cfg.Engine)
	if s.cfg.WeaponsDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.WeaponsDir, 0o755); err != nil {
		return fmt.Errorf("server: weapons dir: %w", err)
	}
	ents, err := os.ReadDir(s.cfg.WeaponsDir)
	if err != nil {
		return fmt.Errorf("server: weapons dir: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, ent := range ents {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".weapon") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(s.cfg.WeaponsDir, name))
		if err != nil {
			s.weapons.loadErrs = append(s.weapons.loadErrs, name+": "+err.Error())
			continue
		}
		// Replay runs the same ladder as an upload: a spec that passed at
		// admission but fails now (e.g. the file was edited by hand) is
		// skipped and surfaced, never served.
		if _, _, werr := s.admitWeapon(string(data)); werr != nil {
			s.weapons.loadErrs = append(s.weapons.loadErrs, name+": "+werr.Error)
		}
	}
	return nil
}

// engine returns the engine new scans should use. Scans grab it once at
// job start; a concurrent swap affects only later jobs.
func (s *Server) engine() *core.Engine {
	return s.engineVal.Load()
}

// admitWeapon runs the full validation ladder on one uploaded spec and, on
// success, admits + persists + swaps. The returned weaponError carries the
// rejected rung for the response body.
func (s *Server) admitWeapon(source string) (*weapon.RegEntry, string, *weaponError) {
	wp := s.weapons
	wp.mu.Lock()
	defer wp.mu.Unlock()

	// Rung 1+2: parse (Spec.Validate runs inside ParseSpec, including the
	// bundled-class collision check).
	spec, err := weapon.ParseSpec(strings.NewReader(source))
	if err != nil {
		return nil, "", &weaponError{Error: err.Error(), Stage: "parse"}
	}
	// Rung 3: registry-level collision rules (any bundled class, reserved
	// startup names) — checked before the dry-run so the error names the
	// cheap cause first. Generate is repeated by Admit; doing it here keeps
	// a generation failure out of the dry-run rung.
	cand, err := weapon.Generate(*spec)
	if err != nil {
		return nil, "", &weaponError{Error: err.Error(), Stage: "generate"}
	}
	if err := wp.registry.CheckAdmissible(spec); err != nil {
		return nil, "", &weaponError{Error: err.Error(), Stage: "collision"}
	}

	// Rung 4: dry-run against the generated proof corpus on a candidate
	// engine containing the would-be weapon set. Revision 0 is fine here:
	// the candidate engine is discarded and the scan is storeless.
	hot, _ := wp.registry.Weapons()
	candSet := make([]*weapon.Weapon, 0, len(hot)+1)
	for _, w := range hot {
		if w.Class.ID != cand.Class.ID {
			candSet = append(candSet, w)
		}
	}
	candSet = append(candSet, cand)
	candEngine, err := wp.base.WithWeapons(0, candSet)
	if err != nil {
		return nil, "", &weaponError{Error: err.Error(), Stage: "collision"}
	}
	if err := candEngine.DryRunWeapon(s.forceCtx, cand); err != nil {
		return nil, "", &weaponError{Error: err.Error(), Stage: "dry-run"}
	}

	// Admission: version it in the registry.
	entry, err := wp.registry.Admit(spec, source)
	if err != nil {
		return nil, "", &weaponError{Error: err.Error(), Stage: "admit"}
	}

	// Persist (best-effort: the weapon is live either way; a failure only
	// costs restart survival and is reported to the caller).
	persistErr := ""
	if wp.dir != "" {
		path := filepath.Join(wp.dir, string(entry.Weapon.Class.ID)+".weapon")
		if err := chaos.WriteFileAtomic(chaos.OS, path, []byte(source), 0o644, true); err != nil {
			persistErr = err.Error()
		}
	}

	if err := s.swapEngineLocked(); err != nil {
		// Roll the admission back: serving a set we cannot derive an
		// engine for would wedge every later swap.
		_, _ = wp.registry.Remove(string(entry.Weapon.Class.ID))
		return nil, "", &weaponError{Error: err.Error(), Stage: "swap"}
	}
	return entry, persistErr, nil
}

// removeWeapon deletes a hot weapon, unpersists it and swaps the engine.
func (s *Server) removeWeapon(name string) (bool, string, error) {
	wp := s.weapons
	wp.mu.Lock()
	defer wp.mu.Unlock()
	ok, err := wp.registry.Remove(name)
	if err != nil || !ok {
		return ok, "", err
	}
	persistErr := ""
	if wp.dir != "" {
		path := filepath.Join(wp.dir, strings.ToLower(name)+".weapon")
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			persistErr = err.Error()
		}
	}
	if err := s.swapEngineLocked(); err != nil {
		return true, persistErr, err
	}
	return true, persistErr, nil
}

// swapEngineLocked derives the engine for the registry's current set and
// revision and publishes it. Callers hold wp.mu.
func (s *Server) swapEngineLocked() error {
	wp := s.weapons
	hot, rev := wp.registry.Weapons()
	ne, err := wp.base.WithWeapons(rev, hot)
	if err != nil {
		return err
	}
	s.engineVal.Store(ne)
	return nil
}

// weaponsList snapshots the platform for GET /weapons: startup weapons
// first (revision 0), then hot entries sorted by name.
func (s *Server) weaponsList() WeaponsResponse {
	wp := s.weapons
	resp := WeaponsResponse{Revision: wp.registry.Revision()}
	hot := wp.registry.List()
	hotNames := make(map[string]bool, len(hot))
	for _, e := range hot {
		hotNames[string(e.Weapon.Class.ID)] = true
	}
	for _, id := range wp.base.WeaponIDs() {
		if hotNames[string(id)] {
			continue
		}
		resp.Weapons = append(resp.Weapons, WeaponInfo{Name: string(id), Startup: true})
	}
	for _, e := range hot {
		resp.Weapons = append(resp.Weapons, WeaponInfo{
			Name:        string(e.Weapon.Class.ID),
			Description: e.Weapon.Spec.Description,
			Revision:    e.Revision,
			AdmittedMS:  e.AdmittedAt.UnixMilli(),
			Sinks:       len(e.Weapon.Spec.Sinks),
			Flag:        e.Weapon.Flag(),
		})
	}
	return resp
}

// handleWeapons serves /weapons: GET lists, POST uploads a spec through
// the validation ladder.
func (s *Server) handleWeapons(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.weaponsList())
	case http.MethodPost:
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, errDraining.Error())
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWeaponBytes))
		if err != nil {
			writeError(w, http.StatusRequestEntityTooLarge, "spec too large: "+err.Error())
			return
		}
		if len(bytes.TrimSpace(body)) == 0 {
			writeJSON(w, http.StatusBadRequest, weaponError{Error: "empty spec", Stage: "parse"})
			return
		}
		entry, persistErr, werr := s.admitWeapon(string(body))
		if werr != nil {
			code := http.StatusUnprocessableEntity
			if werr.Stage == "parse" {
				code = http.StatusBadRequest
			}
			if werr.Stage == "collision" || werr.Stage == "admit" {
				code = http.StatusConflict
			}
			writeJSON(w, code, werr)
			return
		}
		resp := s.weaponsList()
		resp.Admitted = string(entry.Weapon.Class.ID)
		resp.PersistError = persistErr
		writeJSON(w, http.StatusCreated, resp)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}

// handleWeaponItem serves /weapons/{name}: GET returns the admitted spec
// source, DELETE removes the weapon and swaps it out of service.
func (s *Server) handleWeaponItem(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/weapons/")
	if name == "" || strings.Contains(name, "/") {
		writeError(w, http.StatusNotFound, "unknown weapon")
		return
	}
	switch r.Method {
	case http.MethodGet:
		e := s.weapons.registry.Get(name)
		if e == nil {
			writeError(w, http.StatusNotFound, "unknown weapon")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, e.Source)
	case http.MethodDelete:
		ok, persistErr, err := s.removeWeapon(name)
		if err != nil {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		if !ok {
			writeError(w, http.StatusNotFound, "unknown weapon")
			return
		}
		resp := s.weaponsList()
		resp.Removed = strings.ToLower(name)
		resp.PersistError = persistErr
		writeJSON(w, http.StatusOK, resp)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or DELETE")
	}
}
