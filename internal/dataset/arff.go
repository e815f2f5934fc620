package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"

	"repro/internal/ml"
)

// WriteARFF serializes the dataset in WEKA's ARFF format, the format the
// paper's data-mining pipeline consumed. Features are nominal {0,1} and the
// class, the last attribute, is {FP,RV}. A dataset without instances keeps
// its named columns.
func WriteARFF(w io.Writer, name string, d *ml.Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "@relation %s\n\n", arffQuote(name))
	n := d.NumFeatures()
	if len(d.Instances) == 0 {
		n = len(d.AttrNames)
	}
	for i := 0; i < n; i++ {
		attr := fmt.Sprintf("a%d", i)
		if i < len(d.AttrNames) && d.AttrNames[i] != "" {
			attr = d.AttrNames[i]
		}
		fmt.Fprintf(bw, "@attribute %s {0,1}\n", arffQuote(attr))
	}
	fmt.Fprintf(bw, "@attribute class {FP,RV}\n\n@data\n")
	for _, in := range d.Instances {
		for _, f := range in.Features {
			if f != 0 {
				bw.WriteString("1,")
			} else {
				bw.WriteString("0,")
			}
		}
		if in.Label {
			bw.WriteString("FP\n")
		} else {
			bw.WriteString("RV\n")
		}
	}
	return bw.Flush()
}

// ReadARFF parses the subset of ARFF that WriteARFF writes: nominal {0,1}
// feature attributes followed by the class, the last attribute, valued
// FP or RV. Attribute types are not checked.
func ReadARFF(r io.Reader) (*ml.Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	d := &ml.Dataset{}
	var names []string // every attribute, the class last
	inData := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' {
			continue
		}
		if inData {
			nAttrs := len(names) - 1
			parts := strings.Split(line, ",")
			if len(parts) != nAttrs+1 {
				return nil, fmt.Errorf("dataset: line %d: %d values, want %d", lineNo, len(parts), nAttrs+1)
			}
			in := ml.Instance{Features: make([]float64, nAttrs)}
			for i := 0; i < nAttrs; i++ {
				switch strings.TrimSpace(parts[i]) {
				case "1":
					in.Features[i] = 1
				case "0":
				default:
					return nil, fmt.Errorf("dataset: line %d: non-binary value %q", lineNo, parts[i])
				}
			}
			switch strings.TrimSpace(parts[nAttrs]) {
			case "FP":
				in.Label = true
			case "RV":
			default:
				return nil, fmt.Errorf("dataset: line %d: unknown class %q", lineNo, parts[nAttrs])
			}
			d.Instances = append(d.Instances, in)
			continue
		}
		keyword := strings.Fields(line)[0]
		switch strings.ToLower(keyword) {
		case "@relation":
		case "@attribute":
			name, err := arffName(strings.TrimSpace(line[len(keyword):]))
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: @attribute: %w", lineNo, err)
			}
			names = append(names, name)
		case "@data":
			if len(names) == 0 {
				return nil, fmt.Errorf("dataset: line %d: @data without a class attribute", lineNo)
			}
			inData = true
		default:
			return nil, fmt.Errorf("dataset: line %d: unexpected %q before @data", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read: %w", err)
	}
	d.AttrNames = names[:max(len(names)-1, 0)]
	return d, nil
}

// arffName reads the attribute name at the start of s, which has no
// leading white space: a bare token, or a quoted string in which a
// backslash escapes the next byte.
func arffName(s string) (string, error) {
	if s == "" {
		return "", errors.New("missing name")
	}
	if s[0] != '\'' {
		return strings.Fields(s)[0], nil
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		c := s[i]
		if c == '\'' {
			if b.Len() == 0 {
				return "", errors.New("empty name")
			}
			return b.String(), nil
		}
		if c == '\\' && i+1 < len(s) {
			i++
			c = s[i]
		}
		b.WriteByte(c)
	}
	return "", errors.New("unterminated quoted name")
}

// arffQuote writes a name so that arffName reads it back: bare when it is a
// plain token, otherwise single-quoted with ' and \ escaped.
func arffQuote(s string) string {
	plain := s != "" && !strings.ContainsFunc(s, func(r rune) bool {
		return unicode.IsSpace(r) || strings.ContainsRune(`'"\{},%`, r)
	})
	if plain {
		return s
	}
	return "'" + strings.NewReplacer(`\`, `\\`, `'`, `\'`).Replace(s) + "'"
}
