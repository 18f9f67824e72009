package flow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fold3d/internal/core"
	"fold3d/internal/cts"
	"fold3d/internal/geom"
	"fold3d/internal/netlist"
	"fold3d/internal/power"
	"fold3d/internal/sta"
	"fold3d/internal/tech"
)

// The block and fold codecs write a flat, columnar, little-endian layout by
// hand. Every cache tier holds these payloads, memory included, and every
// hit and every peer shares the held bytes, so a decode must be a deep
// copy: it allocates every slice and the one string the names are cut from
// afresh and aliases none of its input. It uses no reflection, and it
// checks every count against the bytes left before it allocates, so a
// malformed payload from disk or a peer is an error, never a panic or a
// runaway allocation.
//
// Block payload (blockCodecVersion 2). Counts are u32; Go ints are i64;
// floats are their IEEE-754 bits; a string is a u32 index into the table.
//
//	strings   n | n end offsets | blob
//	header    name | clock u8 | is3D u8 | NumTSV | NumF2F | MaxRouteLayer
//	cells     n | columns: name, family u8, drive u8, Vth u8, x, y, die u8,
//	          flags u8 (1 Fixed, 2 IsClockBuf), group, activity
//	macros    n | records: name, model (name, width, height, bits, in-cap,
//	          pins, access, setup, leakage, read energy), x, y, die u8,
//	          fixed u8, group, activity
//	ports     n | records: name, dir u8, x, y, die u8, cap, budget
//	nets      n | records: name, kind u8, driver pin, sink count, via
//	          count, activity, route length, layer, crossings, wire C, R
//	sinks     n | pins (kind u8, index u32, pin u16), net by net
//	vias      n | points, net by net
//	outline   2 rects | TSV pads n | rects
//	tail      Stats | Power | Timing (u8 present, ...) | CTS (u8 present,
//	          ...) | Reps | Swapped
//
// Each decoded net's Sinks and Vias is a capacity-capped window of one
// backing array per block, so a later append reallocates instead of
// overwriting the next net. Empty slices decode as nil.
//
// Fold payload (foldCodecVersion 2): three die columns (cells, macros,
// ports; each n | n bytes), then CutNets and AreaPerDie.

// errTruncated reports a payload shorter than its own counts say.
var errTruncated = errors.New("truncated payload")

// enc appends fixed-width little-endian fields to b.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) int(v int)     { e.u64(uint64(int64(v))) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) count(n int)   { e.u32(uint32(n)) }

// str writes s after its u32 length (the block hash's layout; the codec
// itself writes strings as table indices).
func (e *enc) str(s string) { e.count(len(s)); e.b = append(e.b, s...) }

func (e *enc) flag(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) point(p geom.Point) { e.f64(p.X); e.f64(p.Y) }
func (e *enc) rect(r geom.Rect)   { e.point(r.Lo); e.point(r.Hi) }

func (e *enc) f64s(v []float64) {
	e.count(len(v))
	for _, x := range v {
		e.f64(x)
	}
}

func (e *enc) pin(p netlist.PinRef) {
	e.u8(uint8(p.Kind))
	e.u32(uint32(p.Idx))
	e.b = binary.LittleEndian.AppendUint16(e.b, uint16(p.Pin))
}

// reserve extends b by k zero bytes and returns them, for columns written
// by index.
func (e *enc) reserve(k int) []byte {
	n := len(e.b)
	e.b = append(e.b, make([]byte, k)...)
	return e.b[n:]
}

// dec reads fixed-width little-endian fields from b. The first failure
// records err and empties b, so every later read yields zeros; a decoder
// checks err before it indexes a column and once at its end.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *dec) take(n int) []byte {
	if n < 0 || n > len(d.b) {
		d.fail(errTruncated)
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *dec) u8() uint8 {
	if p := d.take(1); d.err == nil {
		return p[0]
	}
	return 0
}

func (d *dec) u32() uint32 {
	if p := d.take(4); d.err == nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *dec) u64() uint64 {
	if p := d.take(8); d.err == nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *dec) int() int     { return int(int64(d.u64())) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) point() geom.Point { return geom.Point{X: d.f64(), Y: d.f64()} }
func (d *dec) rect() geom.Rect   { return geom.Rect{Lo: d.point(), Hi: d.point()} }

// count reads an element count and checks that that many elements of size
// bytes each fit in the input left, before the caller allocates for them.
func (d *dec) count(size int) int {
	n := int(d.u32())
	if d.err == nil && n > len(d.b)/size {
		d.fail(fmt.Errorf("count %d of %d-byte elements exceeds the %d bytes left", n, size, len(d.b)))
	}
	if d.err != nil {
		return 0
	}
	return n
}

// small reads a one-byte enum and checks it is below limit.
func (d *dec) small(what string, limit uint8) uint8 {
	v := d.u8()
	if v >= limit {
		d.fail(fmt.Errorf("%s %d out of range", what, v))
	}
	return v
}

func (d *dec) flag(what string) bool { return d.small(what, 2) == 1 }

func (d *dec) f64s() []float64 {
	n := d.count(8)
	p := d.take(8 * n)
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = f64At(p, i)
	}
	return out
}

func f64At(p []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
}

func u32At(p []byte, i int) uint32 { return binary.LittleEndian.Uint32(p[4*i:]) }

// strWriter builds the string table. add appends a string that is unique
// to its record (a cell or net name); intern shares one entry among the
// few strings that repeat across records (groups, macro models).
type strWriter struct {
	ends []uint32
	blob []byte
	seen map[string]uint32
}

func (t *strWriter) add(s string) uint32 {
	t.blob = append(t.blob, s...)
	t.ends = append(t.ends, uint32(len(t.blob)))
	return uint32(len(t.ends) - 1)
}

func (t *strWriter) intern(s string) uint32 {
	if i, ok := t.seen[s]; ok {
		return i
	}
	i := t.add(s)
	t.seen[s] = i
	return i
}

// strTable is a decoded string table: every entry back to back in one
// string, and the u32 end offset of each.
type strTable struct {
	all  string
	ends []byte
}

func (d *dec) strTable() strTable {
	n := d.count(4)
	ends := d.take(4 * n)
	if d.err != nil {
		return strTable{}
	}
	prev := uint32(0)
	for i := 0; i < n; i++ {
		e := u32At(ends, i)
		if e < prev {
			d.fail(fmt.Errorf("string %d ends at %d, before %d", i, e, prev))
			return strTable{}
		}
		prev = e
	}
	blob := d.take(int(prev))
	if d.err != nil {
		return strTable{}
	}
	return strTable{all: string(blob), ends: ends}
}

// str resolves string index i; an index outside the table fails d.
func (t *strTable) str(d *dec, i uint32) string {
	if int(i) >= len(t.ends)/4 {
		d.fail(fmt.Errorf("string index %d of %d", i, len(t.ends)/4))
		return ""
	}
	lo := uint32(0)
	if i > 0 {
		lo = u32At(t.ends, int(i-1))
	}
	return t.all[lo:u32At(t.ends, int(i))]
}

// Fixed byte widths of the block payload's per-element layouts.
const (
	cellBytes  = 4 + 3 + 16 + 1 + 1 + 4 + 8
	macroBytes = 4 + 4 + 16 + 8 + 8 + 8 + 32 + 16 + 1 + 1 + 4 + 8
	portBytes  = 4 + 1 + 16 + 1 + 8 + 8
	netBytes   = 4 + 1 + pinBytes + 4 + 4 + 48
	pinBytes   = 1 + 4 + 2
	pointBytes = 16
	rectBytes  = 32
)

// encodeBlock writes the block payload of a.
func encodeBlock(a *blockArtifact) ([]byte, error) {
	b := a.Block
	if b == nil {
		return nil, errors.New("flow: encoding a block artifact without a block")
	}
	sinks, vias := 0, 0
	for i := range b.Nets {
		sinks += len(b.Nets[i].Sinks)
		vias += len(b.Nets[i].Vias)
	}
	size := 64 + len(b.Cells)*cellBytes + len(b.Macros)*macroBytes + len(b.Ports)*portBytes +
		len(b.Nets)*netBytes + sinks*pinBytes + vias*pointBytes + (2+len(b.TSVPads))*rectBytes + 256
	if t := a.Timing; t != nil {
		size += 8 * (len(t.CellSlack) + len(t.NetSlack) + len(t.ArrOut))
	}
	e := enc{b: make([]byte, 0, size)}
	st := strWriter{seen: map[string]uint32{}}

	e.u32(st.intern(b.Name))
	e.u8(uint8(b.Clock))
	e.flag(b.Is3D)
	e.int(b.NumTSV)
	e.int(b.NumF2F)
	e.int(b.MaxRouteLayer)

	n := len(b.Cells)
	e.count(n)
	cols := e.reserve(n * cellBytes)
	col := func(w int) []byte {
		c := cols[:n*w]
		cols = cols[n*w:]
		return c
	}
	name, fam, drive, vth, x, y := col(4), col(1), col(1), col(1), col(8), col(8)
	die, flags, group, act := col(1), col(1), col(4), col(8)
	for i := range b.Cells {
		c := &b.Cells[i]
		binary.LittleEndian.PutUint32(name[4*i:], st.add(c.Name))
		fam[i], drive[i], vth[i] = uint8(c.Master.Fam), uint8(c.Master.Drive), uint8(c.Master.Vth)
		binary.LittleEndian.PutUint64(x[8*i:], math.Float64bits(c.Pos.X))
		binary.LittleEndian.PutUint64(y[8*i:], math.Float64bits(c.Pos.Y))
		die[i] = uint8(c.Die)
		if c.Fixed {
			flags[i] |= 1
		}
		if c.IsClockBuf {
			flags[i] |= 2
		}
		binary.LittleEndian.PutUint32(group[4*i:], st.intern(c.Group))
		binary.LittleEndian.PutUint64(act[8*i:], math.Float64bits(c.Activity))
	}

	e.count(len(b.Macros))
	for i := range b.Macros {
		m := &b.Macros[i]
		e.u32(st.add(m.Name))
		e.u32(st.intern(m.Model.Name))
		e.f64(m.Model.Width)
		e.f64(m.Model.Height)
		e.int(m.Model.Bits)
		e.f64(m.Model.InCapfF)
		e.int(m.Model.NumPins)
		e.f64(m.Model.AccessPS)
		e.f64(m.Model.SetupPS)
		e.f64(m.Model.LeakmW)
		e.f64(m.Model.ReadEnergyFJ)
		e.point(m.Pos)
		e.u8(uint8(m.Die))
		e.flag(m.Fixed)
		e.u32(st.intern(m.Group))
		e.f64(m.Activity)
	}

	e.count(len(b.Ports))
	for i := range b.Ports {
		p := &b.Ports[i]
		e.u32(st.add(p.Name))
		e.u8(uint8(p.Dir))
		e.point(p.Pos)
		e.u8(uint8(p.Die))
		e.f64(p.CapfF)
		e.f64(p.Budget)
	}

	e.count(len(b.Nets))
	for i := range b.Nets {
		nt := &b.Nets[i]
		e.u32(st.add(nt.Name))
		e.u8(uint8(nt.Kind))
		e.pin(nt.Driver)
		e.count(len(nt.Sinks))
		e.count(len(nt.Vias))
		e.f64(nt.Activity)
		e.f64(nt.RouteLen)
		e.int(nt.Layer)
		e.int(nt.Crossings)
		e.f64(nt.WireCapfF)
		e.f64(nt.WireResOhm)
	}
	e.count(sinks)
	for i := range b.Nets {
		for _, s := range b.Nets[i].Sinks {
			e.pin(s)
		}
	}
	e.count(vias)
	for i := range b.Nets {
		for _, v := range b.Nets[i].Vias {
			e.point(v)
		}
	}

	e.rect(b.Outline[0])
	e.rect(b.Outline[1])
	e.count(len(b.TSVPads))
	for _, r := range b.TSVPads {
		e.rect(r)
	}

	s := &a.Stats
	e.u32(st.intern(s.Name))
	e.f64(s.Footprint)
	e.int(s.NumCells)
	e.int(s.NumBuffers)
	e.int(s.NumMacros)
	e.f64(s.Wirelength)
	e.int(s.NumLongWire)
	e.int(s.NumTSV)
	e.int(s.NumF2F)
	e.f64(s.HVTFraction)

	p := &a.Power
	for _, v := range [...]float64{p.TotalMW, p.CellMW, p.NetMW, p.WireMW, p.PinMW, p.LeakageMW, p.ClockMW} {
		e.f64(v)
	}

	e.flag(a.Timing != nil)
	if t := a.Timing; t != nil {
		e.f64(t.WNS)
		e.f64(t.TNS)
		e.int(t.Endpoints)
		e.int(t.Failing)
		e.f64s(t.CellSlack)
		e.f64s(t.NetSlack)
		e.f64s(t.ArrOut)
	}
	e.flag(a.CTS != nil)
	if c := a.CTS; c != nil {
		e.f64(c.SkewPS)
		e.f64(c.InsertionDelayPS)
		e.int(c.NumBuffers)
		e.f64(c.WirelengthUm)
		e.int(c.Levels)
	}
	e.int(a.Reps)
	e.int(a.Swapped)

	// The string table goes first so a decoder resolves names in one pass.
	out := enc{b: make([]byte, 0, 4+4*len(st.ends)+len(st.blob)+len(e.b))}
	out.count(len(st.ends))
	for _, end := range st.ends {
		out.u32(end)
	}
	out.b = append(out.b, st.blob...)
	out.b = append(out.b, e.b...)
	return out.b, nil
}

// decodeBlock reads a block payload, interning every cell master in lib.
func decodeBlock(data []byte, lib *tech.Library) (*blockArtifact, error) {
	d := &dec{b: data}
	st := d.strTable()
	b := &netlist.Block{Name: st.str(d, d.u32())}
	b.Clock = tech.ClockDomain(d.small("clock domain", 2))
	b.Is3D = d.flag("is3D flag")
	b.NumTSV = d.int()
	b.NumF2F = d.int()
	b.MaxRouteLayer = d.int()

	n := d.count(cellBytes)
	cols := d.take(n * cellBytes)
	if d.err != nil {
		return nil, d.err
	}
	col := func(w int) []byte {
		c := cols[:n*w]
		cols = cols[n*w:]
		return c
	}
	name, fam, drive, vth, x, y := col(4), col(1), col(1), col(1), col(8), col(8)
	die, flags, group, act := col(1), col(1), col(4), col(8)
	if n > 0 {
		b.Cells = make([]netlist.Instance, n)
	}
	for i := range b.Cells {
		master, err := lib.Cell(tech.Family(fam[i]), int(drive[i]), tech.VthClass(vth[i]))
		if err != nil {
			return nil, err
		}
		if die[i] > 1 || flags[i] > 3 {
			return nil, fmt.Errorf("cell %d: die %d, flags %#x out of range", i, die[i], flags[i])
		}
		b.Cells[i] = netlist.Instance{
			Name:       st.str(d, u32At(name, i)),
			Master:     master,
			Pos:        geom.Point{X: f64At(x, i), Y: f64At(y, i)},
			Die:        netlist.Die(die[i]),
			Fixed:      flags[i]&1 != 0,
			Group:      st.str(d, u32At(group, i)),
			IsClockBuf: flags[i]&2 != 0,
			Activity:   f64At(act, i),
		}
	}

	if n := d.count(macroBytes); n > 0 {
		b.Macros = make([]netlist.MacroInst, n)
	}
	for i := range b.Macros {
		m := &b.Macros[i]
		m.Name = st.str(d, d.u32())
		m.Model.Name = st.str(d, d.u32())
		m.Model.Width = d.f64()
		m.Model.Height = d.f64()
		m.Model.Bits = d.int()
		m.Model.InCapfF = d.f64()
		m.Model.NumPins = d.int()
		m.Model.AccessPS = d.f64()
		m.Model.SetupPS = d.f64()
		m.Model.LeakmW = d.f64()
		m.Model.ReadEnergyFJ = d.f64()
		m.Pos = d.point()
		m.Die = netlist.Die(d.small("macro die", 2))
		m.Fixed = d.flag("macro fixed flag")
		m.Group = st.str(d, d.u32())
		m.Activity = d.f64()
	}

	if n := d.count(portBytes); n > 0 {
		b.Ports = make([]netlist.Port, n)
	}
	for i := range b.Ports {
		p := &b.Ports[i]
		p.Name = st.str(d, d.u32())
		p.Dir = netlist.PortDir(d.small("port direction", 2))
		p.Pos = d.point()
		p.Die = netlist.Die(d.small("port die", 2))
		p.CapfF = d.f64()
		p.Budget = d.f64()
	}

	// Net records first, then every sink and every via; all three regions
	// are taken (so bounds-checked) before anything is allocated for them.
	nn := d.count(netBytes)
	recs := d.take(nn * netBytes)
	ns := d.count(pinBytes)
	sinkRecs := d.take(ns * pinBytes)
	nv := d.count(pointBytes)
	viaRecs := d.take(nv * pointBytes)
	if d.err != nil {
		return nil, d.err
	}
	counts := [3]int{len(b.Cells), len(b.Macros), len(b.Ports)}
	pinAt := func(p []byte) netlist.PinRef {
		k, idx := p[0], binary.LittleEndian.Uint32(p[1:])
		if k > uint8(netlist.KindPort) {
			d.fail(fmt.Errorf("pin kind %d out of range", k))
		} else if int(idx) >= counts[k] {
			d.fail(fmt.Errorf("pin index %d of %d (kind %d)", idx, counts[k], k))
		}
		return netlist.PinRef{Kind: netlist.NodeKind(k), Idx: int32(idx), Pin: int16(binary.LittleEndian.Uint16(p[5:]))}
	}
	var sinks []netlist.PinRef
	if ns > 0 {
		sinks = make([]netlist.PinRef, ns)
	}
	for i := range sinks {
		sinks[i] = pinAt(sinkRecs[i*pinBytes:])
	}
	var vias []geom.Point
	if nv > 0 {
		vias = make([]geom.Point, nv)
	}
	for i := range vias {
		vias[i] = geom.Point{X: f64At(viaRecs, 2*i), Y: f64At(viaRecs, 2*i+1)}
	}
	if nn > 0 {
		b.Nets = make([]netlist.Net, nn)
	}
	sLo, vLo := 0, 0
	for i := range b.Nets {
		r := recs[i*netBytes:]
		kind := r[4]
		if kind > uint8(netlist.Clock) {
			return nil, fmt.Errorf("net %d: kind %d out of range", i, kind)
		}
		rest := r[5+pinBytes:]
		nsk, nvi := int(u32At(rest, 0)), int(u32At(rest, 1))
		if nsk > ns-sLo || nvi > nv-vLo {
			return nil, fmt.Errorf("net %d: %d sinks and %d vias overrun the %d and %d left", i, nsk, nvi, ns-sLo, nv-vLo)
		}
		nt := &b.Nets[i]
		nt.Name = st.str(d, u32At(r, 0))
		nt.Kind = netlist.NetKind(kind)
		nt.Driver = pinAt(r[5:])
		if nsk > 0 {
			nt.Sinks = sinks[sLo : sLo+nsk : sLo+nsk]
		}
		if nvi > 0 {
			nt.Vias = vias[vLo : vLo+nvi : vLo+nvi]
		}
		sLo, vLo = sLo+nsk, vLo+nvi
		f := rest[8:]
		nt.Activity = f64At(f, 0)
		nt.RouteLen = f64At(f, 1)
		nt.Layer = int(int64(binary.LittleEndian.Uint64(f[16:])))
		nt.Crossings = int(int64(binary.LittleEndian.Uint64(f[24:])))
		nt.WireCapfF = f64At(f, 4)
		nt.WireResOhm = f64At(f, 5)
	}
	if sLo != ns || vLo != nv {
		return nil, fmt.Errorf("nets hold %d sinks and %d vias, payload %d and %d", sLo, vLo, ns, nv)
	}

	b.Outline[0] = d.rect()
	b.Outline[1] = d.rect()
	if n := d.count(rectBytes); n > 0 {
		b.TSVPads = make([]geom.Rect, n)
	}
	for i := range b.TSVPads {
		b.TSVPads[i] = d.rect()
	}

	a := &blockArtifact{Block: b}
	s := &a.Stats
	s.Name = st.str(d, d.u32())
	s.Footprint = d.f64()
	s.NumCells = d.int()
	s.NumBuffers = d.int()
	s.NumMacros = d.int()
	s.Wirelength = d.f64()
	s.NumLongWire = d.int()
	s.NumTSV = d.int()
	s.NumF2F = d.int()
	s.HVTFraction = d.f64()

	a.Power = power.Report{TotalMW: d.f64(), CellMW: d.f64(), NetMW: d.f64(), WireMW: d.f64(),
		PinMW: d.f64(), LeakageMW: d.f64(), ClockMW: d.f64()}

	if d.flag("timing flag") {
		a.Timing = &sta.Report{WNS: d.f64(), TNS: d.f64(), Endpoints: d.int(), Failing: d.int()}
		a.Timing.CellSlack = d.f64s()
		a.Timing.NetSlack = d.f64s()
		a.Timing.ArrOut = d.f64s()
	}
	if d.flag("CTS flag") {
		a.CTS = &cts.Result{SkewPS: d.f64(), InsertionDelayPS: d.f64(), NumBuffers: d.int(),
			WirelengthUm: d.f64(), Levels: d.int()}
	}
	a.Reps = d.int()
	a.Swapped = d.int()
	if d.err == nil && len(d.b) != 0 {
		d.fail(fmt.Errorf("%d trailing bytes", len(d.b)))
	}
	if d.err != nil {
		return nil, d.err
	}
	return a, nil
}

// encodeFold writes the fold payload of a.
func encodeFold(a *foldArtifact) []byte {
	e := enc{b: make([]byte, 0, 12+len(a.CellDie)+len(a.MacroDie)+len(a.PortDie)+24)}
	for _, dies := range [...][]byte{a.CellDie, a.MacroDie, a.PortDie} {
		e.count(len(dies))
		e.b = append(e.b, dies...)
	}
	e.int(a.Result.CutNets)
	e.f64(a.Result.AreaPerDie[0])
	e.f64(a.Result.AreaPerDie[1])
	return e.b
}

// decodeFold reads a fold payload; a die other than 0 or 1 is an error.
func decodeFold(data []byte) (*foldArtifact, error) {
	d := &dec{b: data}
	var cols [3][]byte
	for k := range cols {
		p := d.take(d.count(1))
		for _, v := range p {
			if v > 1 {
				return nil, fmt.Errorf("die %d out of range", v)
			}
		}
		if len(p) > 0 {
			cols[k] = append([]byte(nil), p...)
		}
	}
	a := &foldArtifact{CellDie: cols[0], MacroDie: cols[1], PortDie: cols[2]}
	a.Result = core.FoldResult{CutNets: d.int(), AreaPerDie: [2]float64{d.f64(), d.f64()}}
	if d.err == nil && len(d.b) != 0 {
		d.fail(fmt.Errorf("%d trailing bytes", len(d.b)))
	}
	if d.err != nil {
		return nil, d.err
	}
	return a, nil
}
