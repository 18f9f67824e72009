package flow

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/pipeline"
	"fold3d/internal/t2"
	"fold3d/internal/tech"
)

// hashedOnly names the structs reached from netlist.Block of which
// hashBlock deliberately hashes only some fields, each with its reason.
// Every other field of every struct the walk reaches must move the digest.
var hashedOnly = map[reflect.Type]struct {
	fields []string
	reason string
}{
	reflect.TypeOf(tech.Cell{}): {[]string{"Fam", "Drive", "Vth"},
		"a library master is identified by family, drive and Vth; its other fields characterize that triple"},
	reflect.TypeOf(tech.MacroModel{}): {[]string{"Name", "Width", "Height", "Bits"},
		"the electrical fields follow from the scale, which the plan input carries"},
}

// TestHashBlockCoverage perturbs every field of netlist.Block, its cells,
// macros, ports, nets and pin references and their geometry, one at a time
// on a clone, and requires each to move hashBlock's digest; every slice's
// length is perturbed too. A field added to the netlist that hashBlock
// does not hash fails here instead of letting two different blocks share
// one cache key (and one stale artifact).
func TestHashBlockCoverage(t *testing.T) {
	d, err := t2.Generate(t2.Config{Scale: 1000, Seed: 42, Only: []string{"L2D0"}})
	if err != nil {
		t.Fatal(err)
	}
	base := d.Blocks["L2D0"].Clone()
	// Generation leaves ports, vias and TSV pads empty; give each list one
	// element so the walk reaches its fields.
	base.AddPort(netlist.Port{Name: "p0", Dir: netlist.Out, Pos: geom.Point{X: 1, Y: 2}, CapfF: 3, Budget: 4})
	base.Nets[0].Vias = []geom.Point{{X: 5, Y: 6}}
	base.TSVPads = []geom.Rect{geom.RectWH(7, 8, 9, 10)}
	want := blockHash(base)
	if got := blockHash(base.Clone()); got != want {
		t.Fatalf("an untouched clone hashes %.12s, the original %.12s", got, want)
	}

	n := 0
	walkFields(t, reflect.ValueOf(base).Elem(), nil, "Block", func(path []int, name string) {
		n++
		c := base.Clone()
		perturb(t, fieldAt(reflect.ValueOf(c).Elem(), path), name)
		if blockHash(c) == want {
			t.Errorf("%s: perturbing it left the digest unchanged; hash it in hashBlock or list it in hashedOnly with a reason", name)
		}
	})
	if got := blockHash(base); got != want {
		t.Fatalf("perturbing clones changed the original's digest: %.12s, was %.12s", got, want)
	}
	t.Logf("%d fields and lengths perturbed", n)

	// Strings are length-prefixed: moving a byte between two adjacent
	// names changes the key.
	ab, a := base.Clone(), base.Clone()
	ab.Cells[0].Name, ab.Cells[1].Name = "ab", "c"
	a.Cells[0].Name, a.Cells[1].Name = "a", "bc"
	if blockHash(ab) == blockHash(a) {
		t.Error(`cell names "ab","c" and "a","bc" hash equal`)
	}
}

// walkFields calls visit with the path and name of every leaf reachable
// from v — each struct field, every array element, element 0 of every
// slice, through pointers — and of every slice, whose length is a leaf of
// its own. A slice must be non-empty, or the fields of its elements would
// go unchecked.
func walkFields(t *testing.T, v reflect.Value, path []int, name string, visit func([]int, string)) {
	t.Helper()
	step := func(i int) []int { return append(slices.Clone(path), i) }
	switch v.Kind() {
	case reflect.Pointer:
		walkFields(t, v.Elem(), path, name, visit)
	case reflect.Struct:
		only, partial := hashedOnly[v.Type()]
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if partial && !slices.Contains(only.fields, f.Name) {
				continue
			}
			walkFields(t, v.Field(i), step(i), name+"."+f.Name, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkFields(t, v.Index(i), step(i), fmt.Sprintf("%s[%d]", name, i), visit)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s is empty in the fixture block", name)
		}
		visit(path, name+" (length)")
		walkFields(t, v.Index(0), step(0), name+"[0]", visit)
	default:
		visit(path, name)
	}
}

// fieldAt follows path from v. Every pointer on the way is replaced by a
// pointer to a copy of its target, so a perturbation through a cell's
// master edits a private copy, never the shared library cell.
func fieldAt(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		v = ownCopy(v)
		if v.Kind() == reflect.Struct {
			v = v.Field(i)
		} else {
			v = v.Index(i)
		}
	}
	return ownCopy(v)
}

func ownCopy(v reflect.Value) reflect.Value {
	for v.Kind() == reflect.Pointer {
		cp := reflect.New(v.Type().Elem())
		cp.Elem().Set(v.Elem())
		v.Set(cp)
		v = cp.Elem()
	}
	return v
}

// perturb changes v to a different value of its type: one more element
// for a slice, one more for an integer, the lowest mantissa bit for a
// float.
func perturb(t *testing.T, v reflect.Value, name string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Slice:
		v.Set(reflect.Append(v, v.Index(0)))
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1))
	default:
		t.Fatalf("%s: no perturbation for kind %s", name, v.Kind())
	}
}

// BenchmarkHashBlock measures the cache-key hash of every block of one
// scale-300 design, the work a chip build does before its fold lookups.
func BenchmarkHashBlock(b *testing.B) {
	d, err := t2.Generate(t2.Config{Scale: 300, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([]*netlist.Block, 0, len(d.Blocks))
	for _, blk := range d.Blocks {
		blocks = append(blocks, blk)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			h := pipeline.NewHasher()
			hashBlock(h, blk)
			h.Sum()
		}
	}
}
