// Package consensus defines the pluggable consensus-protocol axis of
// the simulator: fork choice, block-reference (uncle) policy, reward
// schedule and target block interval, abstracted behind the Protocol
// interface so the chain substrate, the mining subsystem and the
// analysis pipeline share one rule set instead of hard-coding
// Ethereum's.
//
// The paper's headline results — Table III fork classification, uncle
// rates, pool reward shares — are all downstream of Ethereum's
// specific rules. Related work studies the same geo/pool questions on
// protocols with different rules (Bitcoin's no-uncle longest chain,
// inclusive-GHOST reward sharing), so the protocol is a first-class
// configuration axis exactly like scenarios: registered by name,
// addressed by a textual spec ("ghost-inclusive:depth=10,decay=0.5"),
// sweepable across runs.
//
// Protocols must be stateless with respect to individual runs: one
// instance may serve one campaign, but every method must be a pure
// function of its arguments and the protocol's own parameters, so the
// simulation stays deterministic and instances are cheap to build per
// run.
package consensus

import (
	"time"

	"ethmeasure/internal/catalog"
	"ethmeasure/internal/types"
)

// Protocol bundles the consensus rules a simulated chain runs under.
type Protocol interface {
	// Name is the registered protocol name ("ethereum", "bitcoin", ...).
	Name() string

	// Prefer is the fork-choice rule: it reports whether candidate
	// should replace incumbent as the preferred head. Implementations
	// must be strict (Prefer(b, b) == false) so the first-seen block
	// wins ties, matching Geth's behaviour.
	Prefer(candidate, incumbent *types.Block) bool

	// MaxReferenceDepth is how many generations back a side-chain
	// block's parent may sit for the block to be referenced (included
	// as an uncle) by a main-chain block. Zero disables references
	// entirely — the Bitcoin model, where side blocks are pure waste.
	MaxReferenceDepth() uint64

	// MaxReferencesPerBlock caps how many references one block carries.
	// Zero for protocols without references.
	MaxReferencesPerBlock() int

	// BlockReward is the static subsidy per main-chain block, in the
	// protocol's native coin units.
	BlockReward() float64

	// ReferenceReward is the reward paid to the miner of a referenced
	// (uncle) block at depth d = includingHeight − uncleHeight. Zero
	// for out-of-window depths and for protocols without references.
	ReferenceReward(depth uint64) float64

	// NephewReward is the reward paid to the including miner per
	// reference it carries.
	NephewReward() float64

	// TargetInterval is the protocol's native mean block interval. The
	// campaign keeps the configured mining interval by default so
	// cross-protocol comparisons run at equal block rates; the native
	// interval applies when the mining interval is left unset.
	TargetInterval() time.Duration
}

// Spec names one protocol plus its parameters — the serializable,
// sweepable unit carried by core.Config.Protocol. The textual form is
//
//	name[:key=val,key=val,...]
//
// e.g. "ghost-inclusive:depth=10,cap=3,decay=0.5". Values must not
// contain commas.
//
// Spec is a thin wrapper over the shared catalog spec
// (internal/catalog); unlike scenario.Spec it is a distinct type so
// its String method can substitute DefaultName for the zero value.
type Spec struct {
	// Name is the registered protocol name. Empty means DefaultName.
	Name string
	// Params are the protocol's key=value parameters. Nil means all
	// defaults.
	Params map[string]string
}

// String renders the spec in canonical textual form (params sorted by
// key, an empty name rendered as DefaultName), the inverse of Parse.
func (s Spec) String() string {
	return cat.Canonical(catalog.Spec(s))
}

// Parse reads a spec from its textual form "name[:key=val,...]". It
// validates syntax only; names and parameter values are checked by the
// registry when the protocol is instantiated.
func Parse(s string) (Spec, error) {
	cs, err := cat.Parse(s)
	return Spec(cs), err
}

// Params is the typed accessor a protocol factory reads its Spec
// parameters through. Getters record the first conversion error and
// mark keys as consumed; the registry rejects specs with unknown
// (unconsumed) keys, so misspelled parameters fail fast instead of
// silently running the default.
type Params = catalog.Params

// Registration describes one protocol kind in the catalog.
type Registration = catalog.Registration[Protocol]

// cat is the protocol catalog: the shared spec/params/registry
// machinery from internal/catalog, instantiated for the Protocol
// product type. An empty spec name resolves to DefaultName.
var cat = catalog.New[Protocol]("consensus", "protocol", DefaultName)

// Register adds a protocol kind to the catalog. Duplicate names panic:
// registration happens in init functions, so a collision is a
// programming error.
func Register(r Registration) {
	cat.Register(r)
}

// Build instantiates one protocol from its spec: looks up the factory,
// runs it over the typed parameters, and rejects unknown or malformed
// parameters. An empty spec name builds the default protocol.
func Build(spec Spec) (Protocol, error) {
	return cat.Build(catalog.Spec(spec))
}

// Validate checks that a spec names a registered protocol and its
// parameters parse; the instance is discarded.
func Validate(spec Spec) error {
	return cat.Validate(catalog.Spec(spec))
}

// Catalog returns every registration sorted by name — the source of
// CLI -list-protocols output.
func Catalog() []Registration {
	return cat.Registrations()
}
