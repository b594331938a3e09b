package analysis

import (
	"sort"

	"ethmeasure/internal/types"
)

// ForkLengthRow is one row of Table III.
type ForkLengthRow struct {
	Length       int
	Total        int
	Recognized   int // referenced as uncle by some main-chain block
	Unrecognized int
}

// ForksResult reproduces Table III and the §III-C4 block-status
// breakdown: every side branch classified by length and by whether it
// became a recognized uncle. The paper: 92.81% of captured blocks on
// the main chain, 6.97% recognized uncles, 0.22% unrecognized; forks
// of length 1 dominate (97%), longest fork 3; no fork longer than 1
// was ever recognized.
type ForksResult struct {
	Rows []ForkLengthRow // ascending by length

	// References reports whether the chain's consensus protocol pays
	// referenced (uncle) side blocks at all. When false — Bitcoin-style
	// rules — the recognized/unrecognized split is structurally empty:
	// every side block is unrecognized, and the uncle-share metric is
	// withheld from KeyMetrics so cross-protocol sweeps aggregate only
	// what each protocol actually produces.
	References bool

	TotalBlocks       int // all captured blocks (excluding genesis)
	MainBlocks        int
	RecognizedUncles  int
	UnrecognizedSide  int
	MainShare         float64
	RecognizedShare   float64
	UnrecognizedShare float64

	TotalForks int
}

// Forks computes Table III from the registry.
func Forks(d *Dataset) *ForksResult {
	reg := d.Chain
	idx := d.index()
	genesis := reg.Genesis().Hash

	res := &ForksResult{References: reg.Protocol().MaxReferencesPerBlock() > 0}
	sideRoots := make([]*types.Block, 0, 64)
	reg.Blocks(func(b *types.Block) bool {
		if b.Hash == genesis {
			return true
		}
		res.TotalBlocks++
		if idx.onMain(b) {
			res.MainBlocks++
			return true
		}
		if idx.referenced[b.Hash] {
			res.RecognizedUncles++
		} else {
			res.UnrecognizedSide++
		}
		if p := idx.at(b.Number - 1); p != nil && p.Hash == b.ParentHash {
			sideRoots = append(sideRoots, b)
		}
		return true
	})
	if res.TotalBlocks > 0 {
		total := float64(res.TotalBlocks)
		res.MainShare = float64(res.MainBlocks) / total
		res.RecognizedShare = float64(res.RecognizedUncles) / total
		res.UnrecognizedShare = float64(res.UnrecognizedSide) / total
	}

	// Each side root anchors one fork: the subtree of side blocks below
	// it. Fork length is the depth of that subtree; the fork counts as
	// recognized only when every one of its blocks was referenced as an
	// uncle — the paper's reading, under which "not a single fork
	// longer than 1 became recognized" holds by protocol construction
	// (a side block's child can never be a valid uncle).
	byLength := make(map[int]*ForkLengthRow)
	for _, root := range sideRoots {
		length, recognized := idx.sideSubtree(root)
		row, ok := byLength[length]
		if !ok {
			row = &ForkLengthRow{Length: length}
			byLength[length] = row
		}
		row.Total++
		if recognized {
			row.Recognized++
		} else {
			row.Unrecognized++
		}
		res.TotalForks++
	}
	lengths := make([]int, 0, len(byLength))
	for l := range byLength {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	for _, l := range lengths {
		res.Rows = append(res.Rows, *byLength[l])
	}
	return res
}

// sideSubtree measures the depth of the side branch rooted at root and
// whether the entire branch was recognized (every block referenced as
// an uncle by some main-chain block).
func (idx *chainIndex) sideSubtree(root *types.Block) (length int, recognized bool) {
	type frame struct {
		b     *types.Block
		depth int
	}
	recognized = true
	stack := []frame{{root, 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.depth > length {
			length = f.depth
		}
		if !idx.referenced[f.b.Hash] {
			recognized = false
		}
		for _, child := range idx.sideChildren[f.b.Hash] {
			stack = append(stack, frame{child, f.depth + 1})
		}
	}
	return length, recognized
}

// OneMinerTupleRow summarises same-(height, miner) tuples of one size.
type OneMinerTupleRow struct {
	Size  int // 2 = pair, 3 = triple, ...
	Count int
}

// OneMinerForksResult reproduces §III-C5: cases where a single miner
// produced several blocks at the same height. The paper found 1,750
// pairs, 25 triples, one 4-tuple and one 7-tuple; the sibling blocks
// were rewarded as uncles in 98% of cases; 56% of cases used the same
// transaction set; and one-miner forks were >11% of all forks.
type OneMinerForksResult struct {
	Tuples []OneMinerTupleRow // ascending by size

	Events           int     // total one-miner fork events (tuples)
	SiblingBlocks    int     // extra blocks beyond one per event
	RecognizedShare  float64 // side members later referenced as uncles
	SameTxShare      float64 // events whose members share a tx set
	ShareOfAllForks  float64 // events / total forks
	TopPoolEvents    map[string]int
	RewardedUncleCnt int
}

// OneMinerForks computes the §III-C5 analysis.
func OneMinerForks(d *Dataset, forks *ForksResult) *OneMinerForksResult {
	reg := d.Chain
	idx := d.index()
	genesis := reg.Genesis().Hash

	type key struct {
		number uint64
		miner  types.PoolID
	}
	groups := make(map[key][]*types.Block)
	reg.Blocks(func(b *types.Block) bool {
		if b.Hash == genesis || b.Miner == 0 {
			return true
		}
		k := key{b.Number, b.Miner}
		groups[k] = append(groups[k], b)
		return true
	})

	res := &OneMinerForksResult{TopPoolEvents: make(map[string]int)}
	bySize := make(map[int]int)
	sameTx := 0
	sideMembers, recognized := 0, 0
	for k, blocks := range groups {
		if len(blocks) < 2 {
			continue
		}
		res.Events++
		bySize[len(blocks)]++
		res.TopPoolEvents[d.PoolName(k.miner)]++
		if sameTxSets(blocks) {
			sameTx++
		}
		for _, b := range blocks {
			if idx.onMain(b) {
				continue
			}
			sideMembers++
			res.SiblingBlocks++
			if idx.referenced[b.Hash] {
				recognized++
				res.RewardedUncleCnt++
			}
		}
	}
	sizes := make([]int, 0, len(bySize))
	for s := range bySize {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	for _, s := range sizes {
		res.Tuples = append(res.Tuples, OneMinerTupleRow{Size: s, Count: bySize[s]})
	}
	if sideMembers > 0 {
		res.RecognizedShare = float64(recognized) / float64(sideMembers)
	}
	if res.Events > 0 {
		res.SameTxShare = float64(sameTx) / float64(res.Events)
	}
	if forks != nil && forks.TotalForks > 0 {
		res.ShareOfAllForks = float64(res.Events) / float64(forks.TotalForks)
	}
	return res
}

// sameTxSets reports whether all blocks in the group carry identical
// transaction sets (the paper's "distinct versions of the same block").
func sameTxSets(blocks []*types.Block) bool {
	ref := txSetKey(blocks[0].TxHashes)
	for _, b := range blocks[1:] {
		if txSetKey(b.TxHashes) != ref {
			return false
		}
	}
	return true
}

func txSetKey(hashes []types.Hash) uint64 {
	// Order-independent set fingerprint: XOR + sum of mixed hashes.
	var x, s uint64
	for _, h := range hashes {
		v := uint64(h) * 0x9e3779b97f4a7c15
		v ^= v >> 29
		x ^= v
		s += v
	}
	return x ^ (s * 0xbf58476d1ce4e5b9) ^ uint64(len(hashes))
}
