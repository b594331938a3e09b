package consensus

import (
	"testing"

	"ethmeasure/internal/types"
)

func TestSpecParseAndCanonicalForm(t *testing.T) {
	spec, err := Parse(" ghost-inclusive : decay=0.7 , depth=12 ")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != GhostInclusiveName {
		t.Fatalf("name = %q", spec.Name)
	}
	if got := spec.String(); got != "ghost-inclusive:decay=0.7,depth=12" {
		t.Fatalf("canonical form = %q", got)
	}
	// Round trip.
	again, err := Parse(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != spec.String() {
		t.Fatalf("round trip diverged: %q vs %q", again.String(), spec.String())
	}
}

func TestSpecParseErrors(t *testing.T) {
	for _, bad := range []string{"", "  ", ":depth=3", "ghost-inclusive:depth", "ghost-inclusive:depth=3,depth=4"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestEmptySpecBuildsDefault(t *testing.T) {
	proto, err := Build(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if proto.Name() != EthereumName {
		t.Fatalf("default protocol = %q", proto.Name())
	}
	if (Spec{}).String() != EthereumName {
		t.Fatalf("empty spec renders %q", (Spec{}).String())
	}
}

func TestBuildRejectsUnknownNameAndParams(t *testing.T) {
	if _, err := Build(Spec{Name: "tendermint"}); err == nil {
		t.Error("unknown protocol must error")
	}
	if _, err := Build(Spec{Name: BitcoinName, Params: map[string]string{"uncles": "2"}}); err == nil {
		t.Error("unknown parameter must error")
	}
	if _, err := Build(Spec{Name: GhostInclusiveName, Params: map[string]string{"depth": "zero"}}); err == nil {
		t.Error("malformed parameter must error")
	}
	if _, err := Build(Spec{Name: GhostInclusiveName, Params: map[string]string{"decay": "1.5"}}); err == nil {
		t.Error("out-of-range decay must error")
	}
}

func TestEthereumSchedule(t *testing.T) {
	e := Ethereum()
	if e.MaxReferenceDepth() != 6 || e.MaxReferencesPerBlock() != 2 {
		t.Fatalf("reference policy = %d/%d", e.MaxReferenceDepth(), e.MaxReferencesPerBlock())
	}
	if e.BlockReward() != 2.0 {
		t.Fatalf("block reward = %g", e.BlockReward())
	}
	// The EIP-1234 uncle schedule: (8-d)/8 × 2 ETH.
	want := map[uint64]float64{0: 0, 1: 1.75, 2: 1.5, 6: 0.5, 7: 0.25, 8: 0}
	for d, r := range want {
		if got := e.ReferenceReward(d); got != r {
			t.Errorf("ReferenceReward(%d) = %g, want %g", d, got, r)
		}
	}
	if e.NephewReward() != 2.0/32 {
		t.Errorf("nephew reward = %g", e.NephewReward())
	}
}

func TestBitcoinHasNoReferences(t *testing.T) {
	b, err := Build(Spec{Name: BitcoinName})
	if err != nil {
		t.Fatal(err)
	}
	if b.MaxReferenceDepth() != 0 || b.MaxReferencesPerBlock() != 0 {
		t.Fatal("bitcoin must not allow references")
	}
	for d := uint64(0); d < 10; d++ {
		if b.ReferenceReward(d) != 0 {
			t.Fatalf("ReferenceReward(%d) != 0", d)
		}
	}
	if b.NephewReward() != 0 {
		t.Fatal("bitcoin pays no nephew reward")
	}
	if b.BlockReward() != 12.5 {
		t.Fatalf("block reward = %g", b.BlockReward())
	}
	custom, err := Build(Spec{Name: BitcoinName, Params: map[string]string{"reward": "6.25"}})
	if err != nil {
		t.Fatal(err)
	}
	if custom.BlockReward() != 6.25 {
		t.Fatalf("custom reward = %g", custom.BlockReward())
	}
}

func TestGhostInclusiveDecay(t *testing.T) {
	proto, err := Build(Spec{Name: GhostInclusiveName, Params: map[string]string{
		"depth": "4", "cap": "5", "decay": "0.5", "reward": "8",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if proto.MaxReferenceDepth() != 4 || proto.MaxReferencesPerBlock() != 5 {
		t.Fatalf("reference policy = %d/%d", proto.MaxReferenceDepth(), proto.MaxReferencesPerBlock())
	}
	want := map[uint64]float64{1: 4, 2: 2, 3: 1, 4: 0.5, 5: 0}
	for d, r := range want {
		if got := proto.ReferenceReward(d); got != r {
			t.Errorf("ReferenceReward(%d) = %g, want %g", d, got, r)
		}
	}
}

func TestPreferIsStrict(t *testing.T) {
	a := &types.Block{TotalDiff: 5}
	b := &types.Block{TotalDiff: 5}
	heavier := &types.Block{TotalDiff: 6}
	for _, name := range cat.Names() {
		proto, err := Build(Spec{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		if proto.Prefer(a, b) || proto.Prefer(b, a) {
			t.Errorf("%s: tie must keep the incumbent", name)
		}
		if !proto.Prefer(heavier, a) {
			t.Errorf("%s: heavier candidate must win", name)
		}
		if proto.Prefer(a, heavier) {
			t.Errorf("%s: lighter candidate must lose", name)
		}
	}
}

func TestCatalogListsAllProtocols(t *testing.T) {
	names := cat.Names()
	if len(names) < 3 {
		t.Fatalf("catalog too small: %v", names)
	}
	for _, want := range []string{EthereumName, BitcoinName, GhostInclusiveName} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missing from catalog %v", want, names)
		}
	}
	for _, reg := range Catalog() {
		if reg.Desc == "" || reg.Usage == "" {
			t.Errorf("%s registration lacks catalog text", reg.Name)
		}
	}
}
