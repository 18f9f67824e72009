package flow

import (
	"fmt"

	"fold3d/internal/cts"
	"fold3d/internal/netlist"
	"fold3d/internal/pipeline"
	"fold3d/internal/power"
	"fold3d/internal/sta"
)

// blockArtifact is the cacheable result of one block implementation: the
// fully implemented netlist plus every figure the experiments report. A
// restored artifact is byte-identical to recomputation (TestCacheEquivalence
// pins this down), so the cache is free to substitute it anywhere.
type blockArtifact struct {
	Block   *netlist.Block
	Stats   netlist.Stats
	Power   power.Report
	Timing  *sta.Report
	CTS     *cts.Result
	Reps    int
	Swapped int
}

// result converts the artifact into the BlockResult the flow returns,
// installing the implemented netlist into live (the caller's block pointer
// stays valid — content replacement, like the rest of the flow mutates
// blocks in place).
func (a *blockArtifact) result(live *netlist.Block) *BlockResult {
	*live = *a.Block
	return &BlockResult{
		Block:             live,
		Stats:             a.Stats,
		Power:             a.Power,
		Timing:            a.Timing,
		CTS:               a.CTS,
		RepeatersInserted: a.Reps,
		HVTSwapped:        a.Swapped,
	}
}

// blockCodecVersion versions the block payload layout (see codec.go); bump
// on any layout change so older spill files miss cleanly instead of
// mis-decoding.
const blockCodecVersion = 2

// blockCodec returns the codec of block artifacts for every cache tier,
// bound to the flow's library: decoding interns each cell master in it.
func (f *Flow) blockCodec() *pipeline.Codec {
	lib := f.D.Lib
	return &pipeline.Codec{
		Kind:    "block",
		Version: blockCodecVersion,
		Encode: func(a pipeline.Artifact) ([]byte, error) {
			art, ok := a.(*blockArtifact)
			if !ok {
				return nil, fmt.Errorf("flow: encoding %T, want *blockArtifact", a)
			}
			return encodeBlock(art)
		},
		Decode: func(data []byte) (pipeline.Artifact, error) {
			art, err := decodeBlock(data, lib)
			if err != nil {
				return nil, fmt.Errorf("flow: block payload: %w", err)
			}
			return art, nil
		},
	}
}

// artifactSpec wires the block artifact into the pipeline executor: capture
// hands the live result to the cache (which encodes it at once), restore
// installs a decoded implementation, its masters already interned in this
// design's library, into the live block.
func (st *implState) artifactSpec() *pipeline.ArtifactSpec {
	return &pipeline.ArtifactSpec{
		Codec: st.f.blockCodec(),
		Capture: func() (pipeline.Artifact, error) {
			r := st.res
			return &blockArtifact{
				Block:   r.Block,
				Stats:   r.Stats,
				Power:   r.Power,
				Timing:  r.Timing,
				CTS:     r.CTS,
				Reps:    r.RepeatersInserted,
				Swapped: r.HVTSwapped,
			}, nil
		},
		Restore: func(a pipeline.Artifact) error {
			art, ok := a.(*blockArtifact)
			if !ok {
				return fmt.Errorf("flow: cache returned %T, want *blockArtifact", a)
			}
			st.res = art.result(st.b)
			return nil
		},
	}
}
