package analysis

import (
	"sort"
	"time"

	"ethmeasure/internal/types"
)

// BurstWindow is the observation window within which consecutive-height
// same-miner blocks count as "announced all together". The paper's
// §III-D forensic argument: Sparkpool's 9-block sequences showed
// average inter-block spacing, so they were honest luck rather than a
// withholding attack; a real attack releases its private chain in a
// burst.
const BurstWindow = 3 * time.Second

// WithholdingRow summarises one pool's publication timing.
type WithholdingRow struct {
	Pool string

	// Sequences of length ≥2 mined consecutively by this pool.
	Sequences int

	// BurstSequences is how many of those arrived within BurstWindow
	// per hop — the withholding signature.
	BurstSequences int

	// MeanIntraGapSec is the mean observed gap between consecutive
	// blocks of this pool's sequences. Honest sequences show ~the
	// network inter-block time; bursts show ~propagation delay.
	MeanIntraGapSec float64
}

// WithholdingResult is the §III-D publication-timing forensic.
type WithholdingResult struct {
	Rows []WithholdingRow // pools with at least one sequence, by name

	// Suspects lists pools whose sequences are predominantly bursts.
	Suspects []string
}

// Withholding finalizes the §III-D forensic: arrival timing of
// same-miner consecutive main-chain blocks, with first-observation
// times served by the shared arrival index.
func (c *Collector) Withholding() *WithholdingResult {
	main := c.ds.index().main

	type agg struct {
		sequences int
		bursts    int
		gapSum    float64
		gaps      int
	}
	byPool := make(map[types.PoolID]*agg)

	for i := 1; i < len(main); {
		if main[i].Miner == 0 || main[i].Miner != main[i-1].Miner {
			i++
			continue
		}
		// A run of ≥2 consecutive blocks by one miner starts at i-1.
		miner := main[i].Miner
		j := i
		for j < len(main) && main[j].Miner == miner {
			j++
		}
		a, ok := byPool[miner]
		if !ok {
			a = &agg{}
			byPool[miner] = a
		}
		a.sequences++
		burst := true
		for k := i; k < j; k++ {
			prev, okPrev := c.blockFirstSeen(main[k-1].Hash)
			cur, okCur := c.blockFirstSeen(main[k].Hash)
			if !okPrev || !okCur {
				burst = false
				continue
			}
			gap := cur - prev
			if gap < 0 {
				gap = 0
			}
			a.gapSum += gap.Seconds()
			a.gaps++
			if gap > BurstWindow {
				burst = false
			}
		}
		if burst {
			a.bursts++
		}
		i = j
	}

	res := &WithholdingResult{}
	ids := make([]types.PoolID, 0, len(byPool))
	for id := range byPool {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := byPool[id]
		row := WithholdingRow{
			Pool:           c.ds.PoolName(id),
			Sequences:      a.sequences,
			BurstSequences: a.bursts,
		}
		if a.gaps > 0 {
			row.MeanIntraGapSec = a.gapSum / float64(a.gaps)
		}
		res.Rows = append(res.Rows, row)
		// Predominantly-burst sequences flag an attacker; an honest
		// pool's sequences arrive at mining pace.
		if a.sequences >= 2 && float64(a.bursts) > 0.5*float64(a.sequences) {
			res.Suspects = append(res.Suspects, row.Pool)
		}
	}
	return res
}
