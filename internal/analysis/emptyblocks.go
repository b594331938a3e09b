package analysis

import (
	"sort"

	"ethmeasure/internal/types"
)

// EmptyBlocksRow is one bar of Figure 6.
type EmptyBlocksRow struct {
	Pool        string
	EmptyBlocks int
	TotalBlocks int
	EmptyRate   float64 // empty / total for this pool
}

// EmptyBlocksResult reproduces Figure 6 and §III-C3: empty main-chain
// blocks per mining pool. The paper found 1.45% of main blocks empty
// (2,921 of 201,086), with Zhizhu above 25% and two major pools at 0.
type EmptyBlocksResult struct {
	Rows        []EmptyBlocksRow // descending by empty count
	MainBlocks  int
	EmptyBlocks int
	EmptyShare  float64
}

// EmptyBlocks computes Figure 6 over the topN pools by total blocks
// mined; the rest aggregate into a "Remaining pools" row.
func EmptyBlocks(d *Dataset, topN int) *EmptyBlocksResult {
	type agg struct{ total, empty int }
	byPool := make(map[types.PoolID]*agg)
	res := &EmptyBlocksResult{}
	for _, b := range d.index().main {
		if b.Miner == 0 {
			continue // genesis
		}
		a, ok := byPool[b.Miner]
		if !ok {
			a = &agg{}
			byPool[b.Miner] = a
		}
		a.total++
		res.MainBlocks++
		if b.Empty() {
			a.empty++
			res.EmptyBlocks++
		}
	}
	if res.MainBlocks > 0 {
		res.EmptyShare = float64(res.EmptyBlocks) / float64(res.MainBlocks)
	}

	ids := make([]types.PoolID, 0, len(byPool))
	for id := range byPool {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if byPool[ids[i]].total != byPool[ids[j]].total {
			return byPool[ids[i]].total > byPool[ids[j]].total
		}
		return ids[i] < ids[j]
	})

	rest := &agg{}
	for i, id := range ids {
		a := byPool[id]
		if topN > 0 && i >= topN {
			rest.total += a.total
			rest.empty += a.empty
			continue
		}
		res.Rows = append(res.Rows, makeEmptyRow(d.PoolName(id), a.total, a.empty))
	}
	if rest.total > 0 {
		res.Rows = append(res.Rows, makeEmptyRow("Remaining pools", rest.total, rest.empty))
	}
	// Figure 6 orders bars by empty count descending.
	sort.SliceStable(res.Rows, func(i, j int) bool {
		return res.Rows[i].EmptyBlocks > res.Rows[j].EmptyBlocks
	})
	return res
}

func makeEmptyRow(name string, total, empty int) EmptyBlocksRow {
	row := EmptyBlocksRow{Pool: name, EmptyBlocks: empty, TotalBlocks: total}
	if total > 0 {
		row.EmptyRate = float64(empty) / float64(total)
	}
	return row
}
