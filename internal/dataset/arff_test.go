package dataset

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/ml"
)

// sameDataset reports whether two datasets hold the same names, labels and
// feature values.
func sameDataset(a, b *ml.Dataset) bool {
	if !slices.Equal(a.AttrNames, b.AttrNames) || len(a.Instances) != len(b.Instances) {
		return false
	}
	for i := range a.Instances {
		x, y := a.Instances[i], b.Instances[i]
		if x.Label != y.Label || !slices.Equal(x.Features, y.Features) {
			return false
		}
	}
	return true
}

// TestARFFRoundtripNames writes attribute names that need quoting, and one
// that a case-insensitive match would mistake for the class column, and
// reads them back unchanged.
func TestARFFRoundtripNames(t *testing.T) {
	d := &ml.Dataset{
		AttrNames: []string{"my attr", "Class", "it's", `back\slash`, "{0,1}"},
		Instances: []ml.Instance{
			{Features: []float64{1, 0, 1, 0, 1}, Label: true},
			{Features: []float64{0, 1, 0, 1, 0}},
		},
	}
	var buf bytes.Buffer
	if err := WriteARFF(&buf, "names test", d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadARFF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !sameDataset(got, d) {
		t.Errorf("read back %q with %d instances, want %q with %d\n%s",
			got.AttrNames, got.Len(), d.AttrNames, d.Len(), buf.String())
	}
}

// FuzzARFF feeds arbitrary bytes to ReadARFF: it must never panic, and any
// dataset it accepts must read back equal after WriteARFF.
func FuzzARFF(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteARFF(&buf, "seed", Generate(Config{Seed: 3, Size: 4})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("@relation r\n@attribute 'my attr' {0,1}\n@attribute Class {0,1}\n@attribute class {FP,RV}\n@data\n1,0,FP\n0,1,RV\n"))
	f.Add([]byte("% comment\n@RELATION 'a b'\n@ATTRIBUTE 'it\\'s' {0,1}\n@attribute cls {FP,RV}\n\n@DATA\n 1 , FP \n"))
	f.Add([]byte("@attribute a {0,1}\n@attribute class {FP,RV}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadARFF(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out strings.Builder
		if err := WriteARFF(&out, "fuzz", d); err != nil {
			t.Fatal(err)
		}
		back, err := ReadARFF(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("re-read of a written dataset failed: %v\n%s", err, out.String())
		}
		if !sameDataset(back, d) {
			t.Fatalf("round trip changed the dataset: names %q → %q, %d → %d instances\n%s",
				d.AttrNames, back.AttrNames, d.Len(), back.Len(), out.String())
		}
	})
}
