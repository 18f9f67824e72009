package t2

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"testing"
)

// TestGenerateGolden pins the generator's complete output — every cell,
// macro, port and net with its driver and sinks, the reserved port-sink
// lists and the logic levels of every block — at three scales and two
// seeds. The digest is taken over dumpDesign, a canonical text rendering
// owned by this test, so no hash recipe of the flow is the oracle. Any
// change to the generator's output or to the order of its RNG draws moves
// a digest; a faster generator must leave all six alone.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		seed  uint64
		want  string
	}{
		{100, 42, "c9de33cd5deed5d49668cf904c1cdd6f0bf0bce59dd6fc71f78dad3dd4885227"},
		{100, 7, "ea85775fb37cbffc6b1547884c2d3d17474d39c23afe14fedb44c48beed3d169"},
		{300, 42, "46a063d104972d3318667089a1867a760baddb3cfaf4aabfdfdc1fa5009e3078"},
		{300, 7, "4f3cbfb919a605502f54f25200ae63608ec1741d0e1ded793fa79404b622bfa9"},
		{1000, 42, "ce88976c2ecd6b5281e267eccf1ad02fd3b7a895fa67adbc22240e5577eda2c1"},
		{1000, 7, "50a79b15bfb4714de2b64c9c2d0b09444abfde86379399cdc0ad9b1154a30ad8"},
	} {
		cfg := Config{Scale: tc.scale, Seed: tc.seed}
		d, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		w := bufio.NewWriter(h)
		dumpDesign(w, d)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("scale %g seed %d: design digest %s, want %s", tc.scale, tc.seed, got, tc.want)
		}
	}
}

// dumpDesign writes every generated block in name order as one line per
// record. Floats print with %v, the shortest form that reads back to the
// same bits, so the rendering is lossless for every field it names.
func dumpDesign(w io.Writer, d *Design) {
	names := make([]string, 0, len(d.Blocks))
	for name := range d.Blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := d.Blocks[name]
		fmt.Fprintf(w, "block %s clock=%d outline=%v is3d=%v tsv=%d f2f=%d pads=%v maxlayer=%d\n",
			b.Name, b.Clock, b.Outline, b.Is3D, b.NumTSV, b.NumF2F, b.TSVPads, b.MaxRouteLayer)
		for i := range b.Cells {
			c := &b.Cells[i]
			fmt.Fprintf(w, "cell %s %s %d/%d/%d pos=%v die=%d fixed=%v group=%q clkbuf=%v act=%v\n",
				c.Name, c.Master.Name, c.Master.Fam, c.Master.Drive, c.Master.Vth,
				c.Pos, c.Die, c.Fixed, c.Group, c.IsClockBuf, c.Activity)
		}
		for i := range b.Macros {
			m := &b.Macros[i]
			fmt.Fprintf(w, "macro %s model=%+v pos=%v die=%d fixed=%v group=%q act=%v\n",
				m.Name, m.Model, m.Pos, m.Die, m.Fixed, m.Group, m.Activity)
		}
		for i := range b.Ports {
			p := &b.Ports[i]
			fmt.Fprintf(w, "port %s dir=%d pos=%v die=%d cap=%v budget=%v\n",
				p.Name, p.Dir, p.Pos, p.Die, p.CapfF, p.Budget)
		}
		for i := range b.Nets {
			n := &b.Nets[i]
			fmt.Fprintf(w, "net %s kind=%d drv=%v sinks=%v act=%v len=%v layer=%d cross=%d vias=%v c=%v r=%v\n",
				n.Name, n.Kind, n.Driver, n.Sinks, n.Activity, n.RouteLen, n.Layer,
				n.Crossings, n.Vias, n.WireCapfF, n.WireResOhm)
		}
		free := d.free[name]
		groups := make([]string, 0, len(free))
		for g := range free {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		for _, g := range groups {
			fmt.Fprintf(w, "free %q %v\n", g, free[g])
		}
		fmt.Fprintf(w, "levels %v\n", d.Levels[name])
	}
}

// BenchmarkGenerate measures one full design generation at scale 300, the
// scale of the warm all-experiments workload.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Config{Scale: 300, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}
