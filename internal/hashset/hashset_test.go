package hashset

import (
	"math/rand"
	"testing"
)

func TestAddHasRemove(t *testing.T) {
	s := &U64{}
	for k := uint64(1); k <= 100; k++ {
		if !s.Add(k) {
			t.Fatalf("Add(%d) not new", k)
		}
		if s.Add(k) {
			t.Fatalf("Add(%d) added twice", k)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	for k := uint64(1); k <= 100; k++ {
		if !s.Has(k) {
			t.Fatalf("Has(%d) = false", k)
		}
	}
	if s.Has(101) {
		t.Error("phantom member 101")
	}
	for k := uint64(1); k <= 50; k++ {
		if !s.Remove(k) {
			t.Fatalf("Remove(%d) = false", k)
		}
		if s.Remove(k) {
			t.Fatalf("Remove(%d) removed twice", k)
		}
	}
	if s.Len() != 50 {
		t.Fatalf("Len = %d after removals, want 50", s.Len())
	}
	for k := uint64(1); k <= 100; k++ {
		if s.Has(k) != (k > 50) {
			t.Fatalf("Has(%d) = %v after removals", k, s.Has(k))
		}
	}
}

func TestZeroKey(t *testing.T) {
	s := &U64{}
	if s.Has(0) {
		t.Error("empty set claims zero")
	}
	if !s.Add(0) || s.Add(0) {
		t.Error("zero Add semantics broken")
	}
	if !s.Has(0) || s.Len() != 1 {
		t.Error("zero not stored")
	}
	if !s.Remove(0) || s.Remove(0) || s.Has(0) {
		t.Error("zero Remove semantics broken")
	}
}

// TestAgainstMap cross-checks against Go's map under a random
// add/remove workload mixing small counter-like keys with random
// 64-bit ones (which land in the overflow map), then under a sliding
// window of sequential ids with removals and far keys that later
// re-bases slide the window over.
func TestAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := &U64{}
	ref := make(map[uint64]bool)
	for i := 0; i < 20000; i++ {
		var k uint64
		if rng.Intn(2) == 0 {
			k = uint64(rng.Intn(4000)) // sequential-ish
		} else {
			k = rng.Uint64()
		}
		switch rng.Intn(3) {
		case 0, 1:
			want := !ref[k]
			if got := s.Add(k); got != want {
				t.Fatalf("step %d: Add(%d) = %v, want %v", i, k, got, want)
			}
			ref[k] = true
		case 2:
			want := ref[k]
			if got := s.Remove(k); got != want {
				t.Fatalf("step %d: Remove(%d) = %v, want %v", i, k, got, want)
			}
			delete(ref, k)
		}
	}
	checkAgainst(t, s, ref)

	// Sliding window: a FIFO of sequential ids (what a known-hash cache
	// sees) with extra out-of-order removals, plus far keys parked in
	// the overflow map ahead of the window that the slide later passes
	// over, and keys near both ends of uint64.
	s, ref = &U64{}, make(map[uint64]bool)
	const base = uint64(2)<<48 + 1
	add := func(k uint64) {
		t.Helper()
		if got, want := s.Add(k), !ref[k]; got != want {
			t.Fatalf("Add(%d) = %v, want %v", k, got, want)
		}
		ref[k] = true
	}
	remove := func(k uint64) {
		t.Helper()
		if got, want := s.Remove(k), ref[k]; got != want {
			t.Fatalf("Remove(%d) = %v, want %v", k, got, want)
		}
		delete(ref, k)
	}
	far := []uint64{0, 1, 1<<64 - 64, 1<<64 - 1}
	for j := uint64(1); j <= 8; j++ {
		far = append(far, base+j*50_000)
	}
	for i := uint64(0); i < 500_000; i++ {
		add(base + i)
		if i >= 300 {
			remove(base + i - 300)
		}
		if i%7 == 0 {
			remove(base + i - uint64(rng.Intn(300)))
		}
		switch i {
		case 1000:
			for _, k := range far {
				add(k)
			}
			if len(s.far) != len(far) {
				t.Fatalf("%d keys overflowed, want %d", len(s.far), len(far))
			}
		case 300_000:
			remove(base + 100_000) // behind the window by now
			remove(base + 350_000) // still ahead
			remove(1)
		}
		if i%4099 == 0 {
			for _, k := range append([]uint64{base + i + 1, base + i - 301}, far...) {
				if s.Has(k) != ref[k] {
					t.Fatalf("step %d: Has(%d) = %v, want %v", i, k, s.Has(k), ref[k])
				}
			}
		}
	}
	if len(s.words) > 64 {
		t.Errorf("window grew to %d words for a ~300-id live span", len(s.words))
	}
	checkAgainst(t, s, ref)
}

func checkAgainst(t *testing.T, s *U64, ref map[uint64]bool) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, map has %d", s.Len(), len(ref))
	}
	for k := range ref {
		if !s.Has(k) {
			t.Fatalf("lost member %d", k)
		}
	}
}

// TestLazyGrowth: the zero set allocates nothing before the first Add,
// not even for lookups, and the first Add sizes storage by the key.
func TestLazyGrowth(t *testing.T) {
	var s U64
	if allocs := testing.AllocsPerRun(10, func() { s.Has(0); s.Has(1 << 30) }); allocs != 0 {
		t.Fatalf("lookups on the zero set made %.0f allocations, want 0", allocs)
	}
	if cap(s.words) != 0 || s.Len() != 0 || s.Has(0) || s.Has(1<<30) {
		t.Fatal("fresh set holds storage or members")
	}
	s.Add(1<<48 + 1)
	if cap(s.words) > minWords {
		t.Fatalf("first Add allocated %d words, want at most %d", cap(s.words), minWords)
	}
}

func BenchmarkAddHas(b *testing.B) {
	b.ReportAllocs()
	s := &U64{}
	for i := 0; i < b.N; i++ {
		k := uint64(i)%65536 + 1
		s.Add(k)
		s.Has(k + 1)
	}
}

// Len returns the number of members.
func (s *U64) Len() int { return s.n + len(s.far) }
