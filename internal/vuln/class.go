// Package vuln defines the vulnerability classes WAP detects: their entry
// points, sensitive sinks and sanitization functions — the (ep, ss, san)
// triples that parameterize the generic taint detector (paper Section III-A).
package vuln

import (
	"fmt"
	"sort"
	"strings"
)

// ClassID identifies a vulnerability class.
type ClassID string

// The fifteen vulnerability classes of the new WAP version (WAPe), plus the
// WordPress SQLI weapon. The first eight are the classes of the original
// WAP v2.1; the rest were added by the paper.
const (
	SQLI  ClassID = "sqli"  // SQL injection
	XSSR  ClassID = "xss"   // reflected cross-site scripting
	XSSS  ClassID = "xss-s" // stored cross-site scripting
	RFI   ClassID = "rfi"   // remote file inclusion
	LFI   ClassID = "lfi"   // local file inclusion
	DTPT  ClassID = "dt"    // directory / path traversal
	OSCI  ClassID = "osci"  // OS command injection
	SCD   ClassID = "scd"   // source code disclosure
	PHPCI ClassID = "phpci" // PHP command injection

	LDAPI  ClassID = "ldapi"  // LDAP injection (new)
	XPATHI ClassID = "xpathi" // XPath injection (new)
	NOSQLI ClassID = "nosqli" // NoSQL injection (new, weapon)
	CS     ClassID = "cs"     // comment spamming injection (new)
	HI     ClassID = "hi"     // header injection / HTTP response splitting (new, weapon)
	EI     ClassID = "ei"     // email injection (new, weapon)
	SF     ClassID = "sf"     // session fixation (new)
	WPSQLI ClassID = "wpsqli" // SQLI with WordPress $wpdb ep/ss/san (weapon)
)

// Submodule is the code-analyzer sub-module a class belongs to (Fig. 2 of
// the paper).
type Submodule int

// Submodules of the restructured code analyzer.
const (
	SubRCEFileInjection Submodule = iota + 1 // RCE & file injection
	SubClientSide                            // client-side injection
	SubQueryInjection                        // query injection
	SubGenerated                             // generated by the weapon generator
)

// String returns the paper's name for the sub-module.
func (s Submodule) String() string {
	switch s {
	case SubRCEFileInjection:
		return "RCE & file injection"
	case SubClientSide:
		return "client-side injection"
	case SubQueryInjection:
		return "query injection"
	case SubGenerated:
		return "new vulnerability detector"
	default:
		return fmt.Sprintf("Submodule(%d)", int(s))
	}
}

// Sink is a sensitive-sink specification.
type Sink struct {
	// Name is the lower-case function or method name. The pseudo-sinks
	// "echo", "print" and "include" match the corresponding language
	// constructs.
	Name string
	// Method marks sinks reached through -> method calls (e.g. $wpdb->query)
	// or :: static calls.
	Method bool
	// Recv constrains the receiver variable name for method sinks
	// (lower-case, without $). Empty matches any receiver.
	Recv string
	// Args lists the dangerous (taint-checked) argument indices. Nil means
	// every argument is checked.
	Args []int
}

// Class is a complete vulnerability-class definition: the data WAP's generic
// detector needs, stored in the ep/ss/san files of each sub-module.
type Class struct {
	ID          ClassID
	Name        string
	Description string
	Submodule   Submodule

	// EntryPoints are superglobal names (without $) whose reads produce
	// tainted data. Empty means the default set (DefaultEntryPoints).
	EntryPoints []string
	// EntryPointFuncs are functions whose return value is tainted (e.g.
	// database fetch functions for stored XSS).
	EntryPointFuncs []string
	// Sinks are the sensitive sinks of the class.
	Sinks []Sink
	// Sanitizers are functions that neutralize tainted data for this class.
	Sanitizers []string
	// SanitizerMethods are method names that sanitize (e.g. $wpdb->prepare).
	SanitizerMethods []string

	// FixID names the corrector fix applied to confirmed vulnerabilities.
	FixID string
	// New marks classes added by the paper (not in WAP v2.1).
	New bool
	// Weapon marks classes provided as generated weapons rather than
	// built-in sub-module configurations.
	Weapon bool
}

// DefaultEntryPoints is the superglobal set treated as tainted input in every
// class, matching WAP's native entry points.
var DefaultEntryPoints = []string{
	"_GET", "_POST", "_COOKIE", "_REQUEST", "_FILES", "_SERVER", "HTTP_GET_VARS",
	"HTTP_POST_VARS", "HTTP_COOKIE_VARS", "HTTP_RAW_POST_DATA", "argv",
}

// UniversalSanitizers neutralize taint for every class: conversions that
// force a numeric or boolean result.
var UniversalSanitizers = []string{
	"intval", "floatval", "doubleval", "boolval", "count", "sizeof", "md5",
	"sha1", "crc32", "strlen", "abs", "rand", "mt_rand", "time", "filemtime",
}

// classes is the full registry, keyed by ID.
var classes = buildRegistry()

func buildRegistry() map[ClassID]*Class {
	list := []*Class{
		{
			ID: SQLI, Name: "SQL Injection", Submodule: SubQueryInjection,
			Description: "untrusted data used to build an SQL query",
			Sinks: []Sink{
				{Name: "mysql_query", Args: []int{0}},
				{Name: "mysql_unbuffered_query", Args: []int{0}},
				{Name: "mysql_db_query", Args: []int{1}},
				{Name: "mysqli_query", Args: []int{1}},
				{Name: "mysqli_real_query", Args: []int{1}},
				{Name: "mysqli_multi_query", Args: []int{1}},
				{Name: "pg_query", Args: nil},
				{Name: "pg_send_query", Args: nil},
				{Name: "sqlite_query", Args: nil},
				{Name: "sqlite_single_query", Args: nil},
				{Name: "query", Method: true},
				{Name: "exec", Method: true},
				{Name: "multi_query", Method: true},
			},
			Sanitizers: []string{
				"mysql_real_escape_string", "mysql_escape_string",
				"mysqli_real_escape_string", "mysqli_escape_string",
				"pg_escape_string", "pg_escape_literal", "sqlite_escape_string",
				"addslashes",
			},
			SanitizerMethods: []string{"real_escape_string", "quote", "prepare"},
			FixID:            "san_sqli",
		},
		{
			ID: XSSR, Name: "Reflected XSS", Submodule: SubClientSide,
			Description: "untrusted data echoed to the HTTP response",
			Sinks: []Sink{
				{Name: "echo"}, {Name: "print"}, {Name: "printf"},
				{Name: "vprintf"}, {Name: "print_r"}, {Name: "exit"},
				{Name: "die"}, {Name: "trigger_error", Args: []int{0}},
			},
			Sanitizers: []string{
				"htmlentities", "htmlspecialchars", "strip_tags", "urlencode",
				"rawurlencode", "json_encode",
			},
			FixID: "san_out",
		},
		{
			ID: XSSS, Name: "Stored XSS", Submodule: SubClientSide,
			Description: "data read from storage echoed without sanitization",
			EntryPointFuncs: []string{
				"mysql_fetch_array", "mysql_fetch_assoc", "mysql_fetch_row",
				"mysql_fetch_object", "mysql_result", "mysqli_fetch_array",
				"mysqli_fetch_assoc", "mysqli_fetch_row", "mysqli_fetch_object",
				"pg_fetch_array", "pg_fetch_assoc", "pg_fetch_row",
				"pg_fetch_object", "pg_fetch_result", "sqlite_fetch_array",
				"file_get_contents", "file", "fgets", "fread",
			},
			EntryPoints: []string{}, // storage only; superglobals covered by XSSR
			Sinks: []Sink{
				{Name: "echo"}, {Name: "print"}, {Name: "printf"},
			},
			Sanitizers: []string{
				"htmlentities", "htmlspecialchars", "strip_tags", "urlencode",
				"rawurlencode", "json_encode",
			},
			FixID: "san_out",
		},
		{
			ID: RFI, Name: "Remote File Inclusion", Submodule: SubRCEFileInjection,
			Description: "untrusted data used in an include/require path",
			Sinks: []Sink{
				{Name: "include"}, // pseudo-sink: include/require exprs
			},
			Sanitizers: []string{"basename"},
			FixID:      "san_mix",
		},
		{
			ID: LFI, Name: "Local File Inclusion", Submodule: SubRCEFileInjection,
			Description: "untrusted data selects a local file to include",
			Sinks: []Sink{
				{Name: "include"},
				{Name: "virtual", Args: []int{0}},
			},
			Sanitizers: []string{"basename", "realpath"},
			FixID:      "san_mix",
		},
		{
			ID: DTPT, Name: "Directory Traversal / Path Traversal", Submodule: SubRCEFileInjection,
			Description: "untrusted data used as a filesystem path",
			Sinks: []Sink{
				{Name: "fopen", Args: []int{0}},
				{Name: "file_get_contents", Args: []int{0}},
				{Name: "readfile", Args: []int{0}},
				{Name: "file", Args: []int{0}},
				{Name: "unlink", Args: []int{0}},
				{Name: "copy", Args: nil},
				{Name: "rename", Args: nil},
				{Name: "rmdir", Args: []int{0}},
				{Name: "mkdir", Args: []int{0}},
				{Name: "opendir", Args: []int{0}},
				{Name: "scandir", Args: []int{0}},
				{Name: "move_uploaded_file", Args: []int{1}},
			},
			Sanitizers: []string{"basename", "realpath", "pathinfo"},
			FixID:      "san_mix",
		},
		{
			ID: SCD, Name: "Source Code Disclosure", Submodule: SubRCEFileInjection,
			Description: "untrusted data selects source files to reveal",
			Sinks: []Sink{
				{Name: "show_source", Args: []int{0}},
				{Name: "highlight_file", Args: []int{0}},
				{Name: "php_strip_whitespace", Args: []int{0}},
			},
			Sanitizers: []string{"basename"},
			FixID:      "san_mix",
		},
		{
			ID: OSCI, Name: "OS Command Injection", Submodule: SubRCEFileInjection,
			Description: "untrusted data used in a shell command",
			Sinks: []Sink{
				{Name: "exec", Args: []int{0}},
				{Name: "shell_exec", Args: []int{0}},
				{Name: "system", Args: []int{0}},
				{Name: "passthru", Args: []int{0}},
				{Name: "popen", Args: []int{0}},
				{Name: "proc_open", Args: []int{0}},
				{Name: "pcntl_exec", Args: nil},
			},
			Sanitizers: []string{"escapeshellarg", "escapeshellcmd"},
			FixID:      "san_osci",
		},
		{
			ID: PHPCI, Name: "PHP Command Injection", Submodule: SubRCEFileInjection,
			Description: "untrusted data evaluated as PHP code",
			Sinks: []Sink{
				{Name: "eval", Args: []int{0}},
				{Name: "assert", Args: []int{0}},
				{Name: "create_function", Args: nil},
				{Name: "call_user_func", Args: []int{0}},
				{Name: "call_user_func_array", Args: []int{0}},
				{Name: "preg_replace_callback", Args: []int{0}},
			},
			FixID: "san_phpci",
		},

		// --- the seven classes added by the paper -------------------------
		{
			ID: LDAPI, Name: "LDAP Injection", Submodule: SubQueryInjection, New: true,
			Description: "untrusted data used to build an LDAP filter",
			Sinks: []Sink{ // Table IV, query injection sub-module
				{Name: "ldap_add", Args: nil},
				{Name: "ldap_delete", Args: nil},
				{Name: "ldap_list", Args: nil},
				{Name: "ldap_read", Args: nil},
				{Name: "ldap_search", Args: nil},
			},
			Sanitizers: []string{"ldap_escape"},
			FixID:      "san_ldapi",
		},
		{
			ID: XPATHI, Name: "XPath Injection", Submodule: SubQueryInjection, New: true,
			Description: "untrusted data used to build an XPath expression",
			Sinks: []Sink{ // Table IV
				{Name: "xpath_eval", Args: nil},
				{Name: "xptr_eval", Args: nil},
				{Name: "xpath_eval_expression", Args: nil},
				{Name: "xpath", Method: true},
				{Name: "evaluate", Method: true},
			},
			FixID: "san_xpathi",
		},
		{
			ID: NOSQLI, Name: "NoSQL Injection", Submodule: SubGenerated, New: true, Weapon: true,
			Description: "untrusted data used in a MongoDB query document",
			Sinks: []Sink{ // Section IV-C.1 weapon configuration
				{Name: "find", Method: true},
				{Name: "findone", Method: true},
				{Name: "findandmodify", Method: true},
				{Name: "insert", Method: true},
				{Name: "remove", Method: true},
				{Name: "save", Method: true},
				{Name: "execute", Method: true},
			},
			Sanitizers: []string{"mysql_real_escape_string"},
			FixID:      "san_nosqli",
		},
		{
			ID: CS, Name: "Comment Spamming Injection", Submodule: SubClientSide, New: true,
			Description: "user content with hyperlinks persisted without URL checks",
			Sinks: []Sink{ // Table IV, client-side injection sub-module
				{Name: "file_put_contents", Args: []int{1}},
				{Name: "file_get_contents", Args: []int{0}},
				{Name: "fwrite", Args: []int{1}},
				{Name: "fputs", Args: []int{1}},
			},
			Sanitizers: []string{"strip_tags"},
			FixID:      "san_write",
		},
		{
			ID: HI, Name: "Header Injection", Submodule: SubGenerated, New: true, Weapon: true,
			Description: "untrusted data with CR/LF reaching an HTTP header",
			Sinks: []Sink{ // Section IV-C.2 weapon configuration
				{Name: "header", Args: []int{0}},
			},
			FixID: "san_hei",
		},
		{
			ID: EI, Name: "Email Injection", Submodule: SubGenerated, New: true, Weapon: true,
			Description: "untrusted data with CR/LF reaching mail headers",
			Sinks: []Sink{
				{Name: "mail", Args: nil},
				{Name: "mb_send_mail", Args: nil},
			},
			FixID: "san_hei",
		},
		{
			ID: SF, Name: "Session Fixation", Submodule: SubRCEFileInjection, New: true,
			Description: "session identifier taken from user input",
			Sinks: []Sink{ // Table IV, RCE & file injection sub-module
				{Name: "setcookie", Args: []int{1}},
				{Name: "setrawcookie", Args: []int{1}},
				{Name: "session_id", Args: []int{0}},
			},
			FixID: "san_sf",
		},
		{
			ID: WPSQLI, Name: "WordPress SQL Injection", Submodule: SubGenerated, New: true, Weapon: true,
			Description: "untrusted data reaching $wpdb SQL sinks",
			Sinks: []Sink{ // Section IV-C.3: ss from $wpdb
				{Name: "query", Method: true, Recv: "wpdb"},
				{Name: "get_results", Method: true, Recv: "wpdb"},
				{Name: "get_row", Method: true, Recv: "wpdb"},
				{Name: "get_var", Method: true, Recv: "wpdb"},
				{Name: "get_col", Method: true, Recv: "wpdb"},
			},
			Sanitizers: []string{
				"esc_sql", "absint", "sanitize_key",
			},
			SanitizerMethods: []string{"prepare"},
			FixID:            "san_wpsqli",
		},
	}
	m := make(map[ClassID]*Class, len(list))
	for _, c := range list {
		m[c.ID] = c
	}
	return m
}

// Get returns the class with the given ID, or nil when unknown.
func Get(id ClassID) *Class { return classes[id] }

// MustGet returns the class with the given ID and panics when unknown; use
// only with compile-time-constant IDs.
func MustGet(id ClassID) *Class {
	c := classes[id]
	if c == nil {
		panic(fmt.Sprintf("vuln: unknown class %q", id))
	}
	return c
}

// All returns every registered class sorted by ID.
func All() []*Class {
	out := make([]*Class, 0, len(classes))
	for _, c := range classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Original returns the eight classes handled by WAP v2.1.
func Original() []*Class {
	return pick(SQLI, XSSR, XSSS, RFI, LFI, DTPT, OSCI, SCD, PHPCI)
}

// WAPe returns the fifteen classes of the new WAP version (without the
// WordPress weapon, which is loaded separately with -wpsqli).
func WAPe() []*Class {
	return pick(SQLI, XSSR, XSSS, RFI, LFI, DTPT, OSCI, SCD, PHPCI,
		LDAPI, XPATHI, NOSQLI, CS, HI, EI, SF)
}

// NewClasses returns only the classes the paper added.
func NewClasses() []*Class {
	var out []*Class
	for _, c := range All() {
		if c.New {
			out = append(out, c)
		}
	}
	return out
}

func pick(ids ...ClassID) []*Class {
	out := make([]*Class, 0, len(ids))
	for _, id := range ids {
		out = append(out, MustGet(id))
	}
	return out
}

// EffectiveEntryPoints returns the superglobal entry points of the class,
// falling back to the default set when the class does not override them.
func (c *Class) EffectiveEntryPoints() []string {
	if c.EntryPoints != nil {
		return c.EntryPoints
	}
	return DefaultEntryPoints
}

// Flag returns the command-line flag that activates the class (e.g.
// "-nosqli"), mirroring the paper's weapon activation flags.
func (c *Class) Flag() string { return "-" + string(c.ID) }

// String implements fmt.Stringer.
func (c *Class) String() string {
	return fmt.Sprintf("%s (%s)", strings.ToUpper(string(c.ID)), c.Name)
}
