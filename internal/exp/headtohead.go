package exp

import (
	"context"
	"fmt"
	"strings"

	"fold3d/internal/place"
	"fold3d/internal/t2"
)

// HeadToHeadRow is one (style, backend) measurement of the backend
// comparison: the placement objective (summed block HPWL), the paper-
// equivalent 3D via count, total power, and the power delta against the
// force backend on the same style.
type HeadToHeadRow struct {
	Style   t2.Style
	Backend string
	// HPWLm is the summed half-perimeter wirelength of every block's
	// signal nets, in meters.
	HPWLm float64
	// Vias3D is the paper-equivalent 3D via count (TSVs or F2F vias).
	Vias3D int
	// PowerW is the chip total power in watts.
	PowerW float64
	// PowerDeltaPct is the power difference against the force backend on
	// the same style (zero for the force rows themselves).
	PowerDeltaPct float64
}

// HeadToHeadResult is the standardized backend comparison: every registered
// placement backend over all five bonding styles, one row per pair.
type HeadToHeadResult struct {
	Rows []HeadToHeadRow
}

// headToHeadStyles is the full style axis of the comparison — the paper's
// five chip styles, in Figure 8 order.
var headToHeadStyles = []t2.Style{
	t2.Style2D, t2.StyleCoreCache, t2.StyleCoreCore, t2.StyleFoldF2B, t2.StyleFoldF2F,
}

// HeadToHead builds the full chip under every registered placement backend
// and every bonding style and compares HPWL, 3D-via count and power
// head-to-head. The cache-key discipline keeps the runs honest: backends
// never restore each other's artifacts, so each cell of the matrix is that
// backend's own work (or its own earlier work, warm).
func HeadToHead(ctx context.Context, cfg Config) (*HeadToHeadResult, error) {
	res := &HeadToHeadResult{}
	// Force first (the reference column), then the rest in registry order.
	backends := place.BackendNames()
	ref := make(map[t2.Style]float64, len(headToHeadStyles))
	for _, backend := range backends {
		for _, style := range headToHeadStyles {
			r, err := cfg.chip(ctx, chipVariant{Style: style, Placer: backend})
			if err != nil {
				return nil, fmt.Errorf("exp: headtohead %s/%s: %w", style, backend, err)
			}
			row := HeadToHeadRow{
				Style:   style,
				Backend: backend,
				HPWLm:   r.Stats.HPWLUm / 1e6,
				Vias3D:  r.Stats.ViasPaperEquiv,
				PowerW:  r.Power.TotalMW / 1e3,
			}
			if backend == place.DefaultBackend {
				ref[style] = row.PowerW
			} else {
				row.PowerDeltaPct = pct(row.PowerW, ref[style])
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// String renders the deterministic comparison table.
func (r *HeadToHeadResult) String() string {
	var sb strings.Builder
	sb.WriteString("== Head-to-head: placement backends across all five styles ==\n")
	sb.WriteString("style        backend      HPWL(m)    3D vias    power(W)    vs force\n")
	for _, row := range r.Rows {
		delta := "      ref"
		if row.Backend != place.DefaultBackend {
			delta = fmt.Sprintf("%+8.1f%%", row.PowerDeltaPct)
		}
		fmt.Fprintf(&sb, "%-12s %-12s %8.3f %10d %11.3f %s\n",
			row.Style, row.Backend, row.HPWLm, row.Vias3D, row.PowerW, delta)
	}
	sb.WriteString("note: backends share the legalizer and supply map; HPWL is the placement objective, power the paper's metric\n")
	return sb.String()
}
