package chain

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ethmeasure/internal/consensus"
	"ethmeasure/internal/types"
)

// refView is the map-based View that preceded the map-free one, kept
// as the reference the differential test drives View against: a known
// map and a height → hashes map, pruned by walking the dropped heights.
type refView struct {
	reg         *Registry
	proto       consensus.Protocol
	refDepth    uint64
	known       map[types.Hash]bool
	byHeight    map[uint64][]types.Hash
	head        *types.Block
	minKept     uint64
	pruneWindow uint64
}

func newRefView(reg *Registry) *refView {
	g := reg.Genesis()
	refDepth := reg.Protocol().MaxReferenceDepth()
	pruneWindow := uint64(128)
	if refDepth*2 > pruneWindow {
		pruneWindow = refDepth * 2
	}
	v := &refView{
		reg:         reg,
		proto:       reg.Protocol(),
		refDepth:    refDepth,
		known:       make(map[types.Hash]bool),
		byHeight:    make(map[uint64][]types.Hash),
		head:        g,
		minKept:     g.Number,
		pruneWindow: pruneWindow,
	}
	v.known[g.Hash] = true
	v.byHeight[g.Number] = append(v.byHeight[g.Number], g.Hash)
	return v
}

func (v *refView) Knows(h types.Hash) bool {
	if v.known[h] {
		return true
	}
	if b, ok := v.reg.Get(h); ok && b.Number < v.minKept {
		return true
	}
	return false
}

func (v *refView) Import(b *types.Block) bool {
	if v.known[b.Hash] {
		return false
	}
	v.known[b.Hash] = true
	if b.Number >= v.minKept {
		v.byHeight[b.Number] = append(v.byHeight[b.Number], b.Hash)
	}
	reorg := v.proto.Prefer(b, v.head)
	if reorg {
		v.head = b
		v.prune()
	}
	return reorg
}

func (v *refView) prune() {
	if v.head.Number < v.minKept+v.pruneWindow*2 {
		return
	}
	keepFrom := v.head.Number - v.pruneWindow
	for h := v.minKept; h < keepFrom; h++ {
		for _, bh := range v.byHeight[h] {
			delete(v.known, bh)
		}
		delete(v.byHeight, h)
	}
	v.minKept = keepFrom
}

func (v *refView) UncleCandidatesFor(parent *types.Block, max int) []types.Hash {
	if max <= 0 {
		return nil
	}
	newNumber := parent.Number + 1
	var lo uint64
	if newNumber > v.refDepth {
		lo = newNumber - v.refDepth
	}
	var out []types.Hash
	for height := lo; height < newNumber && len(out) < max; height++ {
		for _, h := range v.byHeight[height] {
			if len(out) >= max {
				break
			}
			b, ok := v.reg.Get(h)
			if !ok {
				continue
			}
			if v.reg.ValidUncle(b, parent) {
				out = append(out, h)
			}
		}
	}
	return out
}

func (v *refView) KnownAtHeight(n uint64) []types.Hash {
	out := make([]types.Hash, len(v.byHeight[n]))
	copy(out, v.byHeight[n])
	return out
}

// viewCase is one differential run: a block tree grown under a
// protocol from a genesis height, imported in a shuffled order.
type viewCase struct {
	seed    int64
	proto   string // consensus spec; "" is Ethereum
	genesis uint64
	heights int // main-chain length to grow
}

var viewCases = []viewCase{
	{seed: 1, heights: 1200},
	{seed: 2, genesis: 7_479_573, heights: 1500},
	{seed: 3, proto: "bitcoin", heights: 900},
	{seed: 4, proto: "ghost-inclusive:depth=100,cap=4", heights: 1400},
	{seed: 5, proto: "ghost-inclusive:depth=70", genesis: 100, heights: 1100},
}

// viewDriver grows a block tree and feeds both views the same import
// stream. Each new block extends a random recent block (so forks and
// heavier side branches appear), may reference uncle candidates, and
// joins a pending pool; imports draw from the pool out of height
// order, and re-import imported blocks and genesis.
type viewDriver struct {
	t       testing.TB
	rng     *rand.Rand
	reg     *Registry
	issuer  *types.HashIssuer
	view    *View
	ref     *refView
	blocks  []*types.Block // every registered block, in creation order
	pending []*types.Block // registered, not yet imported
	top     *types.Block   // highest block created
	step    int
}

func newViewDriver(t testing.TB, c viewCase) *viewDriver {
	issuer := types.NewHashIssuer(3)
	reg := NewRegistry(c.genesis, issuer)
	if c.proto != "" {
		spec, err := consensus.Parse(c.proto)
		if err != nil {
			t.Fatal(err)
		}
		p, err := consensus.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		reg.SetProtocol(p)
	}
	return &viewDriver{
		t: t, rng: rand.New(rand.NewSource(c.seed)), reg: reg, issuer: issuer,
		view: NewView(reg), ref: newRefView(reg),
		blocks: []*types.Block{reg.Genesis()}, top: reg.Genesis(),
	}
}

// mine registers a block on a parent drawn from the newest blocks,
// referencing up to two of the reference view's uncle candidates.
func (d *viewDriver) mine() {
	recent := d.blocks[max(0, len(d.blocks)-12):]
	parent := recent[d.rng.Intn(len(recent))]
	if d.rng.Intn(3) == 0 {
		parent = d.top
	}
	b := &types.Block{
		Hash:       d.issuer.Next(),
		Number:     parent.Number + 1,
		ParentHash: parent.Hash,
		Miner:      types.PoolID(d.rng.Intn(4)),
		Difficulty: uint64(1 + d.rng.Intn(3)),
	}
	if d.rng.Intn(4) == 0 {
		b.Uncles = d.ref.UncleCandidatesFor(parent, 2)
	}
	if err := d.reg.Add(b); err != nil {
		d.t.Fatal(err)
	}
	d.blocks = append(d.blocks, b)
	d.pending = append(d.pending, b)
	if b.Number > d.top.Number {
		d.top = b
	}
}

// importOne imports one block into both views: mostly a pending block,
// drawn from the whole pool so heights arrive out of order, sometimes
// an already imported block or genesis.
func (d *viewDriver) importOne() {
	var b *types.Block
	switch r := d.rng.Intn(10); {
	case r == 0:
		b = d.reg.Genesis()
	case r == 1 || len(d.pending) == 0:
		b = d.blocks[d.rng.Intn(len(d.blocks))]
	default:
		i := d.rng.Intn(len(d.pending))
		b = d.pending[i]
		d.pending[i] = d.pending[len(d.pending)-1]
		d.pending = d.pending[:len(d.pending)-1]
	}
	got, want := d.view.Import(b), d.ref.Import(b)
	if got != want {
		d.fail("Import(%d@%d) = %v, want %v", b.Hash, b.Number, got, want)
	}
}

func (d *viewDriver) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("step %d (minKept %d): %s", d.step, d.ref.minKept, fmt.Sprintf(format, args...))
}

// compare checks every query, and the number of hashes held, against
// the reference.
func (d *viewDriver) compare() {
	d.t.Helper()
	v, ref := d.view, d.ref
	if v.Head() != ref.head {
		d.fail("head %d, want %d", v.Head().Hash, ref.head.Hash)
	}
	// Both hold the same imported hashes, so prunes free the same
	// memory; View keeps genesis out of its set.
	for _, b := range d.blocks {
		if b == d.reg.Genesis() {
			continue
		}
		if got, want := v.known.Has(uint64(b.Hash)), ref.known[b.Hash]; got != want {
			d.fail("holds %d@%d = %v, want %v", b.Hash, b.Number, got, want)
		}
	}
	probes := []types.Hash{d.reg.Genesis().Hash, d.issuer.Next(), types.Hash(1 << 60), ref.head.Hash}
	for i := 0; i < 6; i++ {
		probes = append(probes, d.blocks[d.rng.Intn(len(d.blocks))].Hash)
	}
	recent := d.blocks[max(0, len(d.blocks)-300):]
	for i := 0; i < 6; i++ {
		probes = append(probes, recent[d.rng.Intn(len(recent))].Hash)
	}
	for _, h := range probes {
		if got, want := v.Knows(h), ref.Knows(h); got != want {
			d.fail("Knows(%d) = %v, want %v", h, got, want)
		}
	}
	heights := []uint64{ref.minKept - 1, ref.minKept, ref.minKept + 1, ref.head.Number, ref.head.Number + 1, d.top.Number}
	for i := 0; i < 3; i++ {
		heights = append(heights, ref.minKept+uint64(d.rng.Intn(int(d.top.Number-ref.minKept)+2)))
	}
	for _, n := range heights {
		if got, want := v.KnownAtHeight(n), ref.KnownAtHeight(n); !slices.Equal(got, want) {
			d.fail("KnownAtHeight(%d) = %v, want %v", n, got, want)
		}
	}
	if d.step%8 != 0 {
		return
	}
	parents := []*types.Block{ref.head, recent[d.rng.Intn(len(recent))], d.blocks[d.rng.Intn(len(d.blocks))]}
	for _, p := range parents {
		max := 1 + d.rng.Intn(4)
		if got, want := v.UncleCandidatesFor(p, max), ref.UncleCandidatesFor(p, max); !slices.Equal(got, want) {
			d.fail("UncleCandidatesFor(%d@%d, %d) = %v, want %v", p.Hash, p.Number, max, got, want)
		}
	}
}

func (d *viewDriver) run(heights int) (prunes int) {
	d.compare()
	for d.top.Number-d.reg.Genesis().Number < uint64(heights) {
		d.step++
		for n := d.rng.Intn(3); n > 0; n-- {
			d.mine()
		}
		for n := d.rng.Intn(4); n > 0; n-- {
			before := d.ref.minKept
			d.importOne()
			if d.ref.minKept != before {
				prunes++
			}
		}
		d.compare()
	}
	return prunes
}

// TestViewMatchesMapReference drives View and the map-based refView
// through the same import streams — forks, heights out of order,
// re-imports, deep reference windows, several prunes — and compares
// every answer after every step.
func TestViewMatchesMapReference(t *testing.T) {
	for _, c := range viewCases {
		t.Run(fmt.Sprintf("seed%d", c.seed), func(t *testing.T) {
			d := newViewDriver(t, c)
			if prunes := d.run(c.heights); prunes < 3 {
				t.Fatalf("stream pruned %d times, want at least 3", prunes)
			}
		})
	}
}

// TestNewViewAllocatesOnlyTheView: a fresh view holds no index storage,
// and still answers for genesis.
func TestNewViewAllocatesOnlyTheView(t *testing.T) {
	reg := NewRegistry(5, types.NewHashIssuer(1))
	var v *View
	if allocs := testing.AllocsPerRun(100, func() { v = NewView(reg) }); allocs != 1 {
		t.Fatalf("NewView made %.0f allocations, want 1 (the View itself)", allocs)
	}
	g := reg.Genesis()
	if !v.Knows(g.Hash) || !slices.Equal(v.KnownAtHeight(g.Number), []types.Hash{g.Hash}) || v.Import(g) {
		t.Fatal("fresh view does not answer for genesis")
	}
}
