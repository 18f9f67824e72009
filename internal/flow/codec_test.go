package flow

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"fold3d/internal/core"
	"fold3d/internal/floorplan"
	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/pipeline"
	"fold3d/internal/t2"
	"fold3d/internal/tech"
)

// attachChipPorts floorplans d's blocks and connects their chip-level
// ports the way the block experiments do, so folds also assign port dies.
func attachChipPorts(d *t2.Design, fl *Flow) error {
	shapes := make(map[string]floorplan.Shape, len(d.Specs))
	for name, spec := range d.Specs {
		w, h := fl.EstimateShape(spec, 1)
		shapes[name] = floorplan.Shape{Name: name, W: w, H: h}
	}
	fp, err := floorplan.RowPlan(shapes, t2.Rows(t2.Style2D), 4)
	if err != nil {
		return err
	}
	chipNets, err := floorplan.AssignPorts(d.Blocks, fp, d.DrawnBundles())
	if err != nil {
		return err
	}
	return d.ConnectPorts(chipNets)
}

// fixture is the real artifact pair the codec tests and fuzz seeds use:
// the smallest block of a scale-1000 design with its chip ports, folded
// min-cut and implemented F2B (so its payload carries TSV pads and vias).
type fixture struct {
	fl    *Flow
	block *blockArtifact
	fold  *foldArtifact
}

var (
	fixtureOnce sync.Once
	fixtureVal  fixture
	fixtureErr  error
)

func codecFixture(tb testing.TB) fixture {
	tb.Helper()
	fixtureOnce.Do(func() {
		d, err := t2.Generate(t2.Config{Scale: 1000, Seed: 42})
		if err != nil {
			fixtureErr = err
			return
		}
		fl := New(d, DefaultConfig())
		if fixtureErr = attachChipPorts(d, fl); fixtureErr != nil {
			return
		}
		names := make([]string, 0, len(d.Blocks))
		for name := range d.Blocks {
			names = append(names, name)
		}
		sort.Strings(names)
		small := names[0]
		for _, name := range names {
			if len(d.Blocks[name].Cells) < len(d.Blocks[small].Cells) {
				small = name
			}
		}
		src := d.Blocks[small]

		fs := &foldState{b: src.Clone(), fo: core.DefaultFoldOptions()}
		if fs.res, err = core.Fold(fs.b, fs.fo); err != nil {
			fixtureErr = err
			return
		}
		fa, _ := fs.artifactSpec().Capture()

		b := src.Clone()
		r, _, err := fl.FoldAndImplementContext(context.Background(), b, core.DefaultFoldOptions(), d.Specs[small].Aspect)
		if err != nil {
			fixtureErr = err
			return
		}
		st := &implState{f: fl, b: b, res: r}
		ba, _ := st.artifactSpec().Capture()
		fixtureVal = fixture{fl: fl, block: ba.(*blockArtifact), fold: fa.(*foldArtifact)}
	})
	if fixtureErr != nil {
		tb.Fatal(fixtureErr)
	}
	return fixtureVal
}

// sameBits reports whether a and b are deeply equal, comparing floats by
// bit pattern (so a NaN a bit flip produced equals itself) and a nil slice
// equal to an empty one.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return a.Pointer() == b.Pointer() || sameBits(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

func same(a, b any) bool { return sameBits(reflect.ValueOf(a), reflect.ValueOf(b)) }

// seedCorpus adds payload, a spread of its truncations and a spread of its
// single-bit flips to f.
func seedCorpus(f *testing.F, payload []byte) {
	f.Add(payload)
	step := len(payload)/24 + 1
	for n := 0; n < len(payload); n += step {
		f.Add(payload[:n])
	}
	f.Add(payload[:len(payload)-1])
	for bit := 0; bit < 8*len(payload); bit += 8*step + 3 {
		flipped := bytes.Clone(payload)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
}

func TestBlockCodecRoundTrip(t *testing.T) {
	fx := codecFixture(t)
	art := fx.block
	if b := art.Block; !b.Is3D || len(b.TSVPads) == 0 || len(b.Ports) == 0 || Fold3DNetCount(b) == 0 {
		t.Fatalf("fixture block %s lacks TSV pads, ports or 3D nets", b.Name)
	}
	payload, err := encodeBlock(art)
	if err != nil {
		t.Fatal(err)
	}
	b := art.Block
	t.Logf("block %s: %d cells, %d macros, %d ports, %d nets, %d TSV pads: %d payload bytes",
		b.Name, len(b.Cells), len(b.Macros), len(b.Ports), len(b.Nets), len(b.TSVPads), len(payload))
	got, err := decodeBlock(payload, fx.fl.D.Lib)
	if err != nil {
		t.Fatal(err)
	}
	if !same(got, art) {
		t.Fatal("decoded block artifact differs from the encoded one")
	}
	if h, want := blockHash(got.Block), blockHash(art.Block); h != want {
		t.Fatalf("decoded block hashes %.12s, encoded %.12s", h, want)
	}
	again, err := encodeBlock(got)
	if err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("re-encoding is not stable (err %v)", err)
	}
	// The encoder's output is sized exactly.
	if cap(payload) != len(payload) {
		t.Errorf("payload len %d, cap %d", len(payload), cap(payload))
	}
}

// TestBlockCodecRejects pins the decoder's validation: each malformed
// field is an error, never a panic or a wrong artifact.
func TestBlockCodecRejects(t *testing.T) {
	fx := codecFixture(t)
	cases := []struct {
		name, want string
		mutate     func(b *netlist.Block)
	}{
		{"master", "no cell", func(b *netlist.Block) { b.Cells[0].Master = &tech.Cell{Fam: 99} }},
		{"cell die", "die 2", func(b *netlist.Block) { b.Cells[0].Die = 2 }},
		{"port die", "port die", func(b *netlist.Block) { b.Ports[0].Die = 2 }},
		{"port dir", "port direction", func(b *netlist.Block) { b.Ports[0].Dir = 2 }},
		{"macro die", "macro die", func(b *netlist.Block) {
			b.Macros = append(b.Macros, netlist.MacroInst{Name: "m", Die: 3})
		}},
		{"net kind", "kind 2", func(b *netlist.Block) { b.Nets[0].Kind = 2 }},
		{"pin kind", "pin kind 3", func(b *netlist.Block) { b.Nets[0].Driver.Kind = 3 }},
		{"cell index", "pin index", func(b *netlist.Block) { b.Nets[0].Sinks[0] = netlist.PinRef{Idx: int32(len(b.Cells))} }},
		{"port index", "pin index", func(b *netlist.Block) {
			b.Nets[0].Sinks[0] = netlist.PinRef{Kind: netlist.KindPort, Idx: int32(len(b.Ports))}
		}},
		{"negative index", "pin index", func(b *netlist.Block) { b.Nets[0].Driver.Idx = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			art := *fx.block
			art.Block = fx.block.Block.Clone()
			tc.mutate(art.Block)
			payload, err := encodeBlock(&art)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeBlock(payload, fx.fl.D.Lib); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode error %v, want one mentioning %q", err, tc.want)
			}
		})
	}

	payload, err := encodeBlock(fx.block)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBlock(append(bytes.Clone(payload), 0), fx.fl.D.Lib); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := decodeBlock(payload[:len(payload)-1], fx.fl.D.Lib); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestBlockCodecHugeCountFailsBeforeAllocating feeds a short payload whose
// cell count claims 1<<31 cells: the decoder must reject the count against
// the bytes left before it allocates for the cells.
func TestBlockCodecHugeCountFailsBeforeAllocating(t *testing.T) {
	e := enc{}
	e.count(1) // string table: one entry, "x"
	e.u32(1)
	e.b = append(e.b, 'x')
	e.u32(0) // block name
	e.u8(0)  // clock
	e.u8(0)  // is3D
	e.int(0) // NumTSV
	e.int(0) // NumF2F
	e.int(0) // MaxRouteLayer
	e.u32(1 << 31)
	e.b = append(e.b, make([]byte, 64)...)

	lib := codecFixture(t).fl.D.Lib
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeBlock(e.b, lib)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "count 2147483648") {
		t.Fatalf("decode error %v, want the cell count rejected", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("rejecting the count allocated %d bytes", n)
	}
}

func TestFoldCodecRoundTripAndRejects(t *testing.T) {
	art := codecFixture(t).fold
	payload := encodeFold(art)
	got, err := decodeFold(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !same(got, art) {
		t.Fatalf("decoded fold %+v differs from the encoded one", got.Result)
	}
	bad := *art
	bad.PortDie = append(bytes.Clone(art.PortDie), 2)
	if _, err := decodeFold(encodeFold(&bad)); err == nil || !strings.Contains(err.Error(), "die 2") {
		t.Errorf("die 2 decoded: %v", err)
	}
	if _, err := decodeFold(append(bytes.Clone(payload), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := decodeFold(payload[:len(payload)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
}

// TestCacheAliasing pins what the shared held bytes rely on: a memory hit
// and a disk hit of one key share no slice with each other or with the
// held payload, and appending to a decoded net's Sinks or Vias leaves the
// next net alone.
func TestCacheAliasing(t *testing.T) {
	fx := codecFixture(t)
	codec := fx.fl.blockCodec()
	dir := t.TempDir()
	c := pipeline.NewCache(pipeline.CacheOptions{Dir: dir})
	const key = "a11a5e"
	c.Put(key, fx.block, codec)
	held, ok := c.EntryBytes(key)
	if !ok {
		t.Fatal("no entry bytes")
	}
	first, ok := c.Get(key, codec)
	if !ok || c.Stats().Hits != 1 {
		t.Fatalf("memory get failed: %+v", c.Stats())
	}
	disk := pipeline.NewCache(pipeline.CacheOptions{Dir: dir})
	second, ok := disk.Get(key, codec)
	if !ok || disk.Stats().DiskHits != 1 {
		t.Fatalf("disk get failed: %+v", disk.Stats())
	}

	m := first.(*blockArtifact)
	for i := range m.Block.Cells {
		m.Block.Cells[i].Pos.X += 1
		m.Block.Cells[i].Name = "mutated"
	}
	for i := range m.Block.Nets {
		for j := range m.Block.Nets[i].Sinks {
			m.Block.Nets[i].Sinks[j].Pin++
		}
		for j := range m.Block.Nets[i].Vias {
			m.Block.Nets[i].Vias[j].Y = -1
		}
	}
	for i := range m.Timing.CellSlack {
		m.Timing.CellSlack[i] = -1
	}
	m.Timing.WNS = -1

	fresh, ok := c.Get(key, codec)
	if !ok {
		t.Fatal("memory get after mutation failed")
	}
	if !same(second, fresh) || !same(fresh, fx.block) {
		t.Fatal("mutating one hit changed another hit or the held payload")
	}
	if again, _ := c.EntryBytes(key); !bytes.Equal(again, held) {
		t.Fatal("EntryBytes changed after the mutations")
	}

	nets := fresh.(*blockArtifact).Block.Nets
	sinks1 := append([]netlist.PinRef(nil), nets[1].Sinks...)
	nets[0].Sinks = append(nets[0].Sinks, netlist.PinRef{Kind: netlist.KindPort, Idx: 99, Pin: 99})
	if !same(nets[1].Sinks, sinks1) {
		t.Fatal("appending to net 0's sinks overwrote net 1's")
	}
	var withVias []int
	for i := range nets {
		if len(nets[i].Vias) > 0 {
			withVias = append(withVias, i)
		}
	}
	if len(withVias) < 2 {
		t.Fatalf("fixture has %d nets with vias, want two", len(withVias))
	}
	lo, hi := withVias[0], withVias[1]
	via := nets[hi].Vias[0]
	nets[lo].Vias = append(nets[lo].Vias, geom.Point{X: -7, Y: -7})
	if nets[hi].Vias[0] != via {
		t.Fatalf("appending to net %d's vias overwrote net %d's", lo, hi)
	}
}

// FuzzBlockCodec feeds arbitrary payloads to the block decoder, seeded
// with a real block and its truncations and single-bit flips. It must never
// panic: a payload either fails, or decodes to an artifact whose
// re-encoding decodes to an equal one.
func FuzzBlockCodec(f *testing.F) {
	fx := codecFixture(f)
	payload, err := encodeBlock(fx.block)
	if err != nil {
		f.Fatal(err)
	}
	seedCorpus(f, payload)
	lib := fx.fl.D.Lib
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeBlock(data, lib)
		if err != nil {
			return
		}
		again, err := encodeBlock(a)
		if err != nil {
			t.Fatalf("decoded artifact does not re-encode: %v", err)
		}
		back, err := decodeBlock(again, lib)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if !same(a, back) {
			t.Fatal("round trip changed the artifact")
		}
	})
}

// FuzzFoldCodec is FuzzBlockCodec for fold payloads.
func FuzzFoldCodec(f *testing.F) {
	payload := encodeFold(codecFixture(f).fold)
	seedCorpus(f, payload)
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<31))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeFold(data)
		if err != nil {
			return
		}
		back, err := decodeFold(encodeFold(a))
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if !same(a, back) {
			t.Fatal("round trip changed the artifact")
		}
	})
}
