// Package catalog implements the shared "name[:key=val,...]" spec
// machinery behind every registered-plugin axis of the simulator.
//
// Two axes predate the package — scenarios (internal/scenario) and
// consensus protocols (internal/consensus) — and each carried its own
// hand-synced copy of the same three pieces: a Spec with canonical
// textual rendering, a typed Params accessor with unknown-key
// rejection, and an init-registered factory catalog. This package is
// that machinery once, generic over the factory's product type, so a
// third axis (pool payout schemes, builder/relay roles, ...) is one
// Catalog[T] variable away instead of a third copy.
//
// The owning packages stay the public surface: scenario.Spec and
// consensus.Spec remain their packages' types (thin wrappers over
// catalog.Spec), and their Parse/Validate/Register functions delegate
// here, so no call site changes when a catalog adopts the shared
// implementation. Error messages are parameterized by the catalog's
// prefix (the owning package name) and kind (the noun users see), and
// reproduce the pre-unification texts exactly.
package catalog

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"ethmeasure/internal/geo"
)

// Spec names one catalog entry plus its parameters — the serializable,
// sweepable unit carried by configurations. The textual form is
//
//	name[:key=val,key=val,...]
//
// e.g. "partition:a=EA+SEA,start=5m,dur=10m". Values must not contain
// commas; region lists join codes with '+'.
type Spec struct {
	// Name is the registered entry name ("churn", "bitcoin", ...).
	Name string
	// Params are the entry's key=value parameters. Nil means all
	// defaults.
	Params map[string]string
}

// String renders the spec in canonical textual form (params sorted by
// key), the inverse of Parse. The name renders as-is; catalogs with a
// default name substitute it via Catalog.Canonical.
func (s Spec) String() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for i, k := range keys {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Params[k])
	}
	return b.String()
}

// Params is the typed accessor a factory reads its Spec parameters
// through. Getters record the first conversion error and mark keys as
// consumed; the catalog rejects specs with unknown (unconsumed) keys,
// so misspelled parameters fail fast instead of silently running the
// default.
type Params struct {
	kind string // the error-message noun ("scenario", "protocol")
	name string
	raw  map[string]string
	used map[string]bool
	err  error
}

// NewParams wraps a raw parameter map in a typed accessor. kind and
// name seed error messages ("scenario churn: parameter x: ...").
// Factories never call this — Build does — but tests exercising a
// factory directly construct their Params here.
func NewParams(kind, name string, raw map[string]string) *Params {
	return &Params{kind: kind, name: name, raw: raw, used: make(map[string]bool, len(raw))}
}

func (p *Params) lookup(key string) (string, bool) {
	p.used[key] = true
	v, ok := p.raw[key]
	return v, ok
}

func (p *Params) fail(key string, err error) {
	if p.err == nil {
		p.err = fmt.Errorf("%s %s: parameter %s: %w", p.kind, p.name, key, err)
	}
}

// Str returns the string parameter key, or def when absent.
func (p *Params) Str(key, def string) string {
	if v, ok := p.lookup(key); ok {
		return v
	}
	return def
}

// Int returns the integer parameter key, or def when absent.
func (p *Params) Int(key string, def int) int {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		p.fail(key, err)
		return def
	}
	return n
}

// Float returns the float parameter key, or def when absent. NaN and
// ±Inf are rejected: no spec parameter has a meaning for them, and
// they pass every range check.
func (p *Params) Float(key string, def float64) float64 {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("%q is not a finite number", v)
	}
	if err != nil {
		p.fail(key, err)
		return def
	}
	return f
}

// Dur returns the duration parameter key ("5m", "30s"), or def when
// absent.
func (p *Params) Dur(key string, def time.Duration) time.Duration {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		p.fail(key, err)
		return def
	}
	return d
}

// Regions returns the region-list parameter key ("EA+SEA", codes or
// full names joined by '+'), or nil when absent.
func (p *Params) Regions(key string) []geo.Region {
	v, ok := p.lookup(key)
	if !ok {
		return nil
	}
	parts := strings.Split(v, "+")
	out := make([]geo.Region, 0, len(parts))
	for _, part := range parts {
		r, err := geo.ParseRegion(strings.TrimSpace(part))
		if err != nil {
			p.fail(key, err)
			return nil
		}
		out = append(out, r)
	}
	return out
}

// Region returns a single-region parameter, or def when absent.
func (p *Params) Region(key string, def geo.Region) geo.Region {
	v, ok := p.lookup(key)
	if !ok {
		return def
	}
	r, err := geo.ParseRegion(v)
	if err != nil {
		p.fail(key, err)
		return def
	}
	return r
}

// Err returns the first conversion error, or an unknown-key error when
// the spec carried parameters no getter consumed.
func (p *Params) Err() error {
	if p.err != nil {
		return p.err
	}
	var unknown []string
	for k := range p.raw {
		if !p.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("%s %s: unknown parameter(s) %s", p.kind, p.name, strings.Join(unknown, ", "))
	}
	return nil
}

// Registration describes one entry in a catalog.
type Registration[T any] struct {
	// Name is the spec name the entry is addressed by.
	Name string
	// Desc is a one-line description for catalogs and help output.
	Desc string
	// Usage documents the textual spec form with optional parameters.
	Usage string
	// New instantiates the product from parsed parameters. Factories
	// read every parameter they accept through p's typed getters (the
	// catalog rejects unconsumed keys and reports malformed values) and
	// validate values eagerly.
	New func(p *Params) (T, error)
}

// Catalog is one named registry of factories producing T. The zero
// value is not usable; construct with New. Registration happens in
// init functions, so a Catalog needs no locking: it is written during
// package initialization and read-only afterwards.
type Catalog[T any] struct {
	prefix      string // error prefix: the owning package name
	kind        string // the noun users see ("scenario", "protocol")
	defaultName string // substituted for an empty spec name; "" = none
	reg         map[string]Registration[T]
}

// New creates an empty catalog. prefix is the owning package name used
// to prefix errors ("scenario: ..."), kind the user-facing noun
// ("unknown protocol ..."), and defaultName the entry an empty spec
// name resolves to ("" when empty names are invalid).
func New[T any](prefix, kind, defaultName string) *Catalog[T] {
	return &Catalog[T]{
		prefix:      prefix,
		kind:        kind,
		defaultName: defaultName,
		reg:         map[string]Registration[T]{},
	}
}

// Register adds an entry. Duplicate names panic: registration happens
// in init functions, so a collision is a programming error.
func (c *Catalog[T]) Register(r Registration[T]) {
	if r.Name == "" || r.New == nil {
		panic(c.prefix + ": registration needs a name and a factory")
	}
	if _, dup := c.reg[r.Name]; dup {
		panic(c.prefix + ": duplicate registration of " + r.Name)
	}
	c.reg[r.Name] = r
}

// Parse reads a spec from its textual form "name[:key=val,...]". It
// validates syntax only; names and parameter values are checked by
// Build when the entry is instantiated.
func (c *Catalog[T]) Parse(s string) (Spec, error) {
	name, rest, hasParams := strings.Cut(strings.TrimSpace(s), ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return Spec{}, fmt.Errorf("%s: empty %s name in %q", c.prefix, c.kind, s)
	}
	spec := Spec{Name: name}
	if !hasParams {
		return spec, nil
	}
	spec.Params = make(map[string]string)
	for _, pair := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(pair, "=")
		key = strings.TrimSpace(key)
		if !ok || key == "" {
			return Spec{}, fmt.Errorf("%s: %s: bad parameter %q (want key=val)", c.prefix, name, pair)
		}
		if _, dup := spec.Params[key]; dup {
			return Spec{}, fmt.Errorf("%s: %s: duplicate parameter %q", c.prefix, name, key)
		}
		spec.Params[key] = strings.TrimSpace(val)
	}
	return spec, nil
}

// Canonical renders a spec in canonical textual form with the
// catalog's default name substituted for an empty one.
func (c *Catalog[T]) Canonical(s Spec) string {
	if s.Name == "" && c.defaultName != "" {
		s.Name = c.defaultName
	}
	return s.String()
}

// Build instantiates one entry from its spec: looks up the factory,
// runs it over the typed parameters, and rejects unknown or malformed
// parameters. An empty spec name builds the catalog's default entry
// when one is configured.
func (c *Catalog[T]) Build(spec Spec) (T, error) {
	var zero T
	name := spec.Name
	if name == "" && c.defaultName != "" {
		name = c.defaultName
	}
	reg, ok := c.reg[name]
	if !ok {
		return zero, fmt.Errorf("%s: unknown %s %q (known: %v)", c.prefix, c.kind, name, c.Names())
	}
	p := NewParams(c.kind, name, spec.Params)
	v, err := reg.New(p)
	// A parameter error names the entry already, and it explains any
	// complaint of the factory about the default it fell back to.
	if perr := p.Err(); perr != nil {
		return zero, perr
	}
	if err != nil {
		return zero, fmt.Errorf("%s %s: %w", c.kind, name, err)
	}
	return v, nil
}

// Validate checks that a spec names a registered entry and its
// parameters parse; the instance is discarded.
func (c *Catalog[T]) Validate(spec Spec) error {
	_, err := c.Build(spec)
	return err
}

// Names returns the registered entry names, sorted.
func (c *Catalog[T]) Names() []string {
	names := make([]string, 0, len(c.reg))
	for name := range c.reg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Registrations returns every registration sorted by name — the source
// of CLI -list-* and the campaign server's /v1/catalog output.
func (c *Catalog[T]) Registrations() []Registration[T] {
	out := make([]Registration[T], 0, len(c.reg))
	for _, name := range c.Names() {
		out = append(out, c.reg[name])
	}
	return out
}
