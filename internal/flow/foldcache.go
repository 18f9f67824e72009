package flow

import (
	"context"
	"fmt"
	"sort"

	"fold3d/internal/core"
	"fold3d/internal/netlist"
	"fold3d/internal/pipeline"
)

// foldArtifact is the cacheable outcome of one core.Fold: the die of every
// cell, macro and port (one byte each) plus the partition report. A fold
// only ever writes those dies and marks the block 3D, so installing them on
// the same pre-fold block reproduces the fold exactly.
type foldArtifact struct {
	CellDie  []byte
	MacroDie []byte
	PortDie  []byte
	Result   core.FoldResult
}

// foldCodecVersion versions the fold payload layout (see codec.go); bump
// on any layout change so older spill files miss cleanly instead of
// mis-decoding.
const foldCodecVersion = 2

// foldCodec is the codec of fold artifacts for every cache tier. Unlike
// block artifacts they hold no library pointers, so it needs no library.
var foldCodec = &pipeline.Codec{
	Kind:    "fold",
	Version: foldCodecVersion,
	Encode: func(a pipeline.Artifact) ([]byte, error) {
		art, ok := a.(*foldArtifact)
		if !ok {
			return nil, fmt.Errorf("flow: encoding %T, want *foldArtifact", a)
		}
		return encodeFold(art), nil
	},
	Decode: func(data []byte) (pipeline.Artifact, error) {
		art, err := decodeFold(data)
		if err != nil {
			return nil, fmt.Errorf("flow: fold payload: %w", err)
		}
		return art, nil
	},
}

// foldState carries one block fold through its one-stage plan.
type foldState struct {
	b   *netlist.Block
	fo  core.FoldOptions
	res *core.FoldResult
}

// foldBlock folds b in place under fo and reports the partition. With
// Cfg.Cache set the fold is a one-stage plan keyed by the pre-fold block
// content and every fold option, so a block folded before — by another
// style, bonding, placer or experiment — restores its die assignment
// instead of re-running the partitioner. Without a cache nothing is hashed
// and the stage simply runs core.Fold.
func (f *Flow) foldBlock(ctx context.Context, b *netlist.Block, fo core.FoldOptions) (*core.FoldResult, error) {
	st := &foldState{b: b, fo: fo}
	cached := f.Cfg.Cache != nil
	var spec *pipeline.ArtifactSpec
	if cached {
		spec = st.artifactSpec()
	}
	ex := pipeline.Executor{Cache: f.Cfg.Cache}
	if err := ex.Run(ctx, st.plan(cached), spec); err != nil {
		return nil, err
	}
	return st.res, nil
}

// plan builds the one-stage fold plan. With hashInput the plan input is the
// content hash of the pre-fold block; uncached folds skip that hash, since
// nothing reads the fingerprint.
func (st *foldState) plan(hashInput bool) *pipeline.Plan {
	p := pipeline.NewPlan("fold:" + st.b.Name)
	if hashInput {
		in := pipeline.NewHasher()
		hashBlock(in, st.b)
		p.SetInput(in.Sum())
	}
	p.MustAdd(pipeline.Stage{Name: "fold", Key: st.key, Run: st.stageFold})
	return p
}

// key mixes every fold option into the stage fingerprint. GroupDie is
// hashed in sorted key order so map iteration order never reaches the key.
func (st *foldState) key(h *pipeline.Hasher) {
	fo := st.fo
	h.Int(int(fo.Mode))
	groups := make([]string, 0, len(fo.GroupDie))
	for g := range fo.GroupDie {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	h.Int(len(groups))
	for _, g := range groups {
		h.Str(g)
		h.Int(fo.GroupDie[g])
	}
	h.Int(len(fo.FoldGroups))
	for _, g := range fo.FoldGroups {
		h.Str(g)
	}
	h.F64(fo.BalanceTol)
	h.Int(fo.InflateCutTo)
	h.Uint(fo.Seed)
}

// stageFold runs the partitioner.
func (st *foldState) stageFold(ctx context.Context) error {
	fr, err := core.Fold(st.b, st.fo)
	if err != nil {
		return fmt.Errorf("flow: folding %s: %w", st.b.Name, err)
	}
	st.res = fr
	return nil
}

// artifactSpec captures the folded dies and restores them onto the live
// block. A restore whose slice lengths do not match the block fails, and
// the executor recomputes; the codec already rejected any die other than 0
// or 1.
func (st *foldState) artifactSpec() *pipeline.ArtifactSpec {
	return &pipeline.ArtifactSpec{
		Codec: foldCodec,
		Capture: func() (pipeline.Artifact, error) {
			b := st.b
			art := &foldArtifact{
				CellDie:  make([]byte, len(b.Cells)),
				MacroDie: make([]byte, len(b.Macros)),
				PortDie:  make([]byte, len(b.Ports)),
				Result:   *st.res,
			}
			for i := range b.Cells {
				art.CellDie[i] = byte(b.Cells[i].Die)
			}
			for i := range b.Macros {
				art.MacroDie[i] = byte(b.Macros[i].Die)
			}
			for i := range b.Ports {
				art.PortDie[i] = byte(b.Ports[i].Die)
			}
			return art, nil
		},
		Restore: func(a pipeline.Artifact) error {
			art, ok := a.(*foldArtifact)
			if !ok {
				return fmt.Errorf("flow: cache returned %T, want *foldArtifact", a)
			}
			b := st.b
			if len(art.CellDie) != len(b.Cells) || len(art.MacroDie) != len(b.Macros) || len(art.PortDie) != len(b.Ports) {
				return fmt.Errorf("flow: cached fold of %s has %d/%d/%d dies, block has %d/%d/%d",
					b.Name, len(art.CellDie), len(art.MacroDie), len(art.PortDie),
					len(b.Cells), len(b.Macros), len(b.Ports))
			}
			for i, d := range art.CellDie {
				b.Cells[i].Die = netlist.Die(d)
			}
			for i, d := range art.MacroDie {
				b.Macros[i].Die = netlist.Die(d)
			}
			for i, d := range art.PortDie {
				b.Ports[i].Die = netlist.Die(d)
			}
			b.Is3D = true
			fr := art.Result
			st.res = &fr
			return nil
		},
	}
}
