// Package corrector implements WAP's code corrector: the library of fixes,
// the three fix templates of the paper (PHP sanitization function, user
// sanitization, user validation), and source rewriting that inserts fixes at
// the line of the sensitive sink.
package corrector

import (
	"fmt"
	"slices"
	"strings"
)

// TemplateKind selects one of the paper's fix templates (Section III-C).
type TemplateKind int

// Fix template kinds.
const (
	// PHPSanitization wraps the tainted data in a given PHP sanitization
	// function (used when the user specifies the sanitization function and
	// associated sink).
	PHPSanitization TemplateKind = iota + 1
	// UserSanitization neutralizes user-specified malicious characters with
	// a user-specified neutralizer character.
	UserSanitization
	// UserValidation only checks for malicious characters and issues a
	// message on a match.
	UserValidation
)

// String returns the template's paper name.
func (k TemplateKind) String() string {
	switch k {
	case PHPSanitization:
		return "PHP sanitization function"
	case UserSanitization:
		return "user sanitization"
	case UserValidation:
		return "user validation"
	default:
		return fmt.Sprintf("TemplateKind(%d)", int(k))
	}
}

// Template is the user-provided data a fix template is instantiated with.
type Template struct {
	Kind TemplateKind
	// SanFunc is the PHP sanitization function for PHPSanitization.
	SanFunc string
	// MaliciousChars are the characters an attacker needs (UserSanitization
	// and UserValidation).
	MaliciousChars []string
	// Neutralizer replaces malicious characters (UserSanitization); a space
	// when empty.
	Neutralizer string
	// Message is echoed on validation failure (UserValidation).
	Message string
}

// Fix is a generated, insertable fix: a PHP function plus the knowledge of
// how to apply it at a sink.
type Fix struct {
	// ID is the fix function name, e.g. "san_sqli" or "san_nosqli".
	ID string
	// Def is the PHP source of the fix function definition.
	Def string
	// Kind records which template generated the fix.
	Kind TemplateKind
}

// GenerateFix instantiates a fix template (the paper's automatic fix
// creation for weapons).
func GenerateFix(id string, t Template) (*Fix, error) {
	if id == "" {
		return nil, fmt.Errorf("corrector: fix needs an id")
	}
	switch t.Kind {
	case PHPSanitization:
		if t.SanFunc == "" {
			return nil, fmt.Errorf("corrector: PHP sanitization template needs a sanitization function")
		}
		def := fmt.Sprintf(`function %s($v) {
    // WAP: sanitize with the configured PHP function.
    return %s($v);
}`, id, t.SanFunc)
		return &Fix{ID: id, Def: def, Kind: t.Kind}, nil
	case UserSanitization:
		if len(t.MaliciousChars) == 0 {
			return nil, fmt.Errorf("corrector: user sanitization template needs malicious characters")
		}
		neutral := t.Neutralizer
		if neutral == "" {
			neutral = " "
		}
		def := fmt.Sprintf(`function %s($v) {
    // WAP: neutralize malicious characters.
    return str_replace(array(%s), %s, $v);
}`, id, phpCharArray(t.MaliciousChars), phpQuote(neutral))
		return &Fix{ID: id, Def: def, Kind: t.Kind}, nil
	case UserValidation:
		if len(t.MaliciousChars) == 0 {
			return nil, fmt.Errorf("corrector: user validation template needs malicious characters")
		}
		msg := t.Message
		if msg == "" {
			msg = "WAP: malicious input blocked"
		}
		def := fmt.Sprintf(`function %s($v) {
    // WAP: validate against malicious characters.
    foreach (array(%s) as $c) {
        if (strpos($v, $c) !== false) {
            echo %s;
            return '';
        }
    }
    return $v;
}`, id, phpCharArray(t.MaliciousChars), phpQuote(msg))
		return &Fix{ID: id, Def: def, Kind: t.Kind}, nil
	default:
		return nil, fmt.Errorf("corrector: unknown template kind %d", int(t.Kind))
	}
}

func phpCharArray(chars []string) string {
	quoted := make([]string, len(chars))
	for i, c := range chars {
		quoted[i] = phpQuote(c)
	}
	return strings.Join(quoted, ", ")
}

// phpQuote renders a single-quoted PHP string literal with escapes.
func phpQuote(s string) string {
	// Characters like \n and \r must use double quotes to be meaningful.
	if strings.ContainsAny(s, "\n\r\t\x00") {
		r := strings.NewReplacer("\\", "\\\\", "\"", "\\\"", "\n", "\\n", "\r", "\\r", "\t", "\\t", "\x00", "\\0", "$", "\\$")
		return "\"" + r.Replace(s) + "\""
	}
	r := strings.NewReplacer("\\", "\\\\", "'", "\\'")
	return "'" + r.Replace(s) + "'"
}

// templates is the fix catalog, keyed by fix ID: the fixes WAP ships for
// its native classes plus the fixes the paper generates for the new ones.
var templates = map[string]Template{
	"san_sqli": {Kind: PHPSanitization, SanFunc: "mysql_real_escape_string"},
	"san_out":  {Kind: PHPSanitization, SanFunc: "htmlentities"},
	"san_osci": {Kind: PHPSanitization, SanFunc: "escapeshellarg"},
	"san_mix": {
		Kind:           UserValidation,
		MaliciousChars: []string{"../", "..\\", "http://", "https://", "ftp://", "php://", "\x00"},
		Message:        "WAP: invalid path",
	},
	"san_phpci": {
		Kind:           UserValidation,
		MaliciousChars: []string{"$", ";", "(", ")", "`"},
		Message:        "WAP: dynamic code blocked",
	},
	// Fixes created for the new classes (Section IV-B):
	"san_ldapi": {
		Kind:           UserValidation,
		MaliciousChars: []string{"*", "(", ")", "\\", "\x00"},
		Message:        "WAP: invalid LDAP filter characters",
	},
	"san_xpathi": {
		Kind:           UserValidation,
		MaliciousChars: []string{"'", "\"", "[", "]", "(", ")", "="},
		Message:        "WAP: invalid XPath characters",
	},
	// san_read / san_write validate content against scripts and, after the
	// paper's change for CS, also against URIs/hyperlinks.
	"san_read": {
		Kind:           UserValidation,
		MaliciousChars: []string{"<script", "javascript:", "http://", "https://", "www."},
		Message:        "WAP: content blocked (script or hyperlink)",
	},
	"san_write": {
		Kind:           UserValidation,
		MaliciousChars: []string{"<script", "javascript:", "http://", "https://", "www."},
		Message:        "WAP: content blocked (script or hyperlink)",
	},
	// Weapon fixes (Section IV-C); HI and EI share san_hei.
	"san_nosqli": {Kind: PHPSanitization, SanFunc: "mysql_real_escape_string"},
	"san_hei": {
		Kind:           UserSanitization,
		MaliciousChars: []string{"\r", "\n", "%0a", "%0d", "%0A", "%0D"},
		Neutralizer:    " ",
	},
	"san_wpsqli": {Kind: PHPSanitization, SanFunc: "esc_sql"},
}

// BuiltinTemplate returns a copy of the catalog template of the built-in
// fix id, or the zero Template when the catalog has none (san_sf).
func BuiltinTemplate(id string) Template {
	t := templates[id]
	t.MaliciousChars = slices.Clone(t.MaliciousChars)
	return t
}

// Library returns the built-in fix catalog of the tool: every catalog
// template instantiated under its fix ID, plus san_sf.
func Library() map[string]*Fix {
	lib := make(map[string]*Fix, len(templates)+1)
	for id, t := range templates {
		f, err := GenerateFix(id, t)
		if err != nil {
			panic(fmt.Sprintf("corrector: built-in fix %s: %v", id, err))
		}
		lib[id] = f
	}
	// Session fixation has no sanitizable characters; its fix regenerates
	// the session id instead of trusting user tokens (created from scratch,
	// as the paper notes).
	lib["san_sf"] = &Fix{
		ID:   "san_sf",
		Kind: UserValidation,
		Def: `function san_sf($v) {
    // WAP: never adopt a user-supplied session token.
    if (session_status() === PHP_SESSION_ACTIVE) {
        session_regenerate_id(true);
    }
    return session_id();
}`,
	}
	return lib
}
