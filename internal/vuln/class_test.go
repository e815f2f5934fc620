package vuln

import (
	"slices"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("classes = %d, want 17 (15 WAPe + stored XSS split + wpsqli)", len(all))
	}
	seen := map[ClassID]bool{}
	for _, c := range all {
		if seen[c.ID] {
			t.Errorf("duplicate class %s", c.ID)
		}
		seen[c.ID] = true
		if c.Name == "" || c.Description == "" {
			t.Errorf("%s: missing metadata", c.ID)
		}
		if len(c.Sinks) == 0 {
			t.Errorf("%s: no sinks", c.ID)
		}
		if c.FixID == "" {
			t.Errorf("%s: no fix", c.ID)
		}
		if c.Submodule < SubRCEFileInjection || c.Submodule > SubGenerated {
			t.Errorf("%s: bad submodule %v", c.ID, c.Submodule)
		}
	}
}

func TestOriginalVsWAPeSets(t *testing.T) {
	orig := Original()
	if len(orig) != 9 { // 8 paper classes with XSS split in two
		t.Errorf("original classes = %d", len(orig))
	}
	for _, c := range orig {
		if c.New {
			t.Errorf("original class %s marked New", c.ID)
		}
	}
	wape := WAPe()
	if len(wape) != 16 {
		t.Errorf("WAPe classes = %d", len(wape))
	}
	newOnes := NewClasses()
	for _, c := range newOnes {
		if !c.New {
			t.Errorf("NewClasses returned old class %s", c.ID)
		}
	}
	// The seven new classes of the paper (+wpsqli weapon).
	ids := map[ClassID]bool{}
	for _, c := range newOnes {
		ids[c.ID] = true
	}
	for _, want := range []ClassID{LDAPI, XPATHI, NOSQLI, CS, HI, EI, SF, WPSQLI} {
		if !ids[want] {
			t.Errorf("new class %s missing", want)
		}
	}
}

func TestTable4Sinks(t *testing.T) {
	// The exact sinks of paper Table IV.
	cases := map[ClassID][]string{
		SF:     {"setcookie", "setrawcookie", "session_id"},
		LDAPI:  {"ldap_add", "ldap_delete", "ldap_list", "ldap_read", "ldap_search"},
		XPATHI: {"xpath_eval", "xptr_eval", "xpath_eval_expression"},
		CS:     {"file_put_contents", "file_get_contents"},
	}
	for id, wantSinks := range cases {
		c := MustGet(id)
		have := map[string]bool{}
		for _, s := range c.Sinks {
			have[s.Name] = true
		}
		for _, w := range wantSinks {
			if !have[w] {
				t.Errorf("%s: missing Table IV sink %q", id, w)
			}
		}
	}
}

func TestNoSQLIWeaponConfig(t *testing.T) {
	// Section IV-C.1: the weapon's exact ss and san.
	c := MustGet(NOSQLI)
	wantSinks := []string{"find", "findone", "findandmodify", "insert", "remove", "save", "execute"}
	have := map[string]bool{}
	for _, s := range c.Sinks {
		if !s.Method {
			t.Errorf("nosqli sink %s should be a method sink", s.Name)
		}
		have[s.Name] = true
	}
	for _, w := range wantSinks {
		if !have[w] {
			t.Errorf("missing nosqli sink %q", w)
		}
	}
	if !slices.Contains(c.Sanitizers, "mysql_real_escape_string") {
		t.Error("the paper's (curious) sanitizer choice must be honored")
	}
}

func TestWPSQLIRecvConstraints(t *testing.T) {
	c := MustGet(WPSQLI)
	for _, s := range c.Sinks {
		if s.Recv != "wpdb" {
			t.Errorf("wpsqli sink %s must be constrained to $wpdb", s.Name)
		}
	}
}

func TestGetAndMustGet(t *testing.T) {
	if Get("nope") != nil {
		t.Error("unknown class should return nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGet should panic on unknown class")
		}
	}()
	MustGet("nope")
}

func TestFlagAndString(t *testing.T) {
	c := MustGet(NOSQLI)
	if c.Flag() != "-nosqli" {
		t.Errorf("flag = %q", c.Flag())
	}
	if !strings.Contains(c.String(), "NOSQLI") {
		t.Errorf("string = %q", c.String())
	}
	if !strings.Contains(SubQueryInjection.String(), "query") {
		t.Errorf("submodule = %q", SubQueryInjection.String())
	}
}

func TestSubmoduleAssignments(t *testing.T) {
	// Fig. 2 / Table IV sub-module placement.
	cases := map[ClassID]Submodule{
		SQLI: SubQueryInjection, LDAPI: SubQueryInjection, XPATHI: SubQueryInjection,
		XSSR: SubClientSide, XSSS: SubClientSide, CS: SubClientSide,
		RFI: SubRCEFileInjection, LFI: SubRCEFileInjection, DTPT: SubRCEFileInjection,
		OSCI: SubRCEFileInjection, SCD: SubRCEFileInjection, PHPCI: SubRCEFileInjection,
		SF:     SubRCEFileInjection,
		NOSQLI: SubGenerated, HI: SubGenerated, EI: SubGenerated, WPSQLI: SubGenerated,
	}
	for id, want := range cases {
		if got := MustGet(id).Submodule; got != want {
			t.Errorf("%s submodule = %v, want %v", id, got, want)
		}
	}
}
