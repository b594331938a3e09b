package scenario

import (
	"ethmeasure/internal/catalog"
)

// Registration describes one scenario kind in the catalog.
type Registration = catalog.Registration[Scenario]

// cat is the scenario catalog: the shared spec/params/registry
// machinery from internal/catalog, instantiated for the Scenario
// product type. Scenarios have no default name — an empty spec name is
// an error.
var cat = catalog.New[Scenario]("scenario", "scenario", "")

// Register adds a scenario kind to the catalog. Duplicate names panic:
// registration happens in init functions, so a collision is a
// programming error.
func Register(r Registration) {
	cat.Register(r)
}

// New instantiates one scenario from its spec: looks up the factory,
// runs it over the typed parameters, and rejects unknown or malformed
// parameters.
func New(spec Spec) (Scenario, error) {
	return cat.Build(spec)
}

// Build instantiates a spec list in order.
func Build(specs []Spec) ([]Scenario, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	out := make([]Scenario, 0, len(specs))
	for _, spec := range specs {
		s, err := New(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Validate checks that a spec names a registered scenario and its
// parameters parse; the instance is discarded.
func Validate(spec Spec) error {
	return cat.Validate(spec)
}

// Catalog returns every registration sorted by name — the source of
// CLI -list-scenarios output.
func Catalog() []Registration {
	return cat.Registrations()
}
